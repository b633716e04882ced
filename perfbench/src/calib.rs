//! Host-speed calibration.
//!
//! On a shared host each virtual CPU slows down by up to ~1.9× for tens
//! of seconds at a time while neighbours load its sibling, and a run can
//! spend all of its time at either speed. A fixed, benchmark-owned
//! arithmetic loop slows down by the same factor (the ratio of a
//! simulation's time to the loop's stays within ~5% at both speeds on
//! the bench host), so every timed piece of work is measured together
//! with the loop on the threads that ran it and reported at the
//! reference speed, where the loop takes [`REFERENCE_LOOP_S`]:
//! `piece × REFERENCE_LOOP_S / loop around the piece`. On an unloaded
//! core of the bench host the factor is ~1 and the figures are the raw
//! times.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Seconds [`kernel`] takes on an unloaded core of the bench host (a
/// 2-vCPU VM at 2.1 GHz nominal); calibrated timings are reported at this
/// speed.
pub const REFERENCE_LOOP_S: f64 = 300e-6;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run. CPU time rather than wall
/// time, so a loop that shares its CPU with another thread still
/// measures only how fast the CPU runs.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calibration loop takes on the calling thread.
pub fn kernel() -> f64 {
    let start = thread_cpu_s();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for i in 0..50_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64 * 1e-16).sqrt() * (i as f64 + 1.0).ln();
    }
    black_box(acc);
    thread_cpu_s() - start
}

/// How often [`sampled`] runs the loop (a ~1.5% share of one CPU).
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Runs `work` on the calling thread while a sampler thread runs the loop
/// every [`SAMPLE_EVERY`]; returns `work`'s result and the samples (start
/// instant, loop CPU seconds).
pub fn sampled<R>(work: impl FnOnce() -> R) -> (R, Vec<(Instant, f64)>) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while !done.load(Ordering::SeqCst) {
                samples.push((Instant::now(), kernel()));
                std::thread::sleep(SAMPLE_EVERY);
            }
            samples
        });
        let out = work();
        done.store(true, Ordering::SeqCst);
        (out, sampler.join().expect("calibration sampler panicked"))
    })
}

/// The loops of `samples` started within `[from, to)`, or the latest one
/// started before `to` when none did.
pub fn loops_within(samples: &[(Instant, f64)], from: Instant, to: Instant) -> Vec<f64> {
    let inside: Vec<f64> = samples
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|&(_, l)| l)
        .collect();
    if !inside.is_empty() {
        return inside;
    }
    samples
        .iter()
        .rev()
        .find(|(t, _)| *t < to)
        .map(|&(_, l)| vec![l])
        .unwrap_or_default()
}

/// The loop run concurrently on one thread per available CPU, as work
/// the program spreads over its thread pool sees the host.
pub fn kernel_on_all_cpus() -> Vec<f64> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|_| s.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    })
}

/// Runs `work` between two calibration loops on the calling thread and
/// returns its result with its seconds at the reference speed.
pub fn timed<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let before = kernel();
    let t = Instant::now();
    let out = work();
    let secs = t.elapsed().as_secs_f64();
    let piece = Piece {
        secs,
        loops: vec![before, kernel()],
    };
    (out, piece.at_reference())
}

/// A timed piece of work and the loop times measured around it.
#[derive(Debug, Clone, Default)]
pub struct Piece {
    pub secs: f64,
    pub loops: Vec<f64>,
}

impl Piece {
    /// The piece's seconds at the reference speed: scaled by the mean
    /// speed of the loops around it relative to [`REFERENCE_LOOP_S`].
    pub fn at_reference(&self) -> f64 {
        if self.loops.is_empty() {
            return self.secs;
        }
        let speed =
            self.loops.iter().map(|l| REFERENCE_LOOP_S / l).sum::<f64>() / self.loops.len() as f64;
        self.secs * speed
    }
}
