//! Spans recorded around calls into the program's layers, and the
//! decorators that record them.
//!
//! Nothing inside the program is instrumented: every span here wraps a
//! public call from outside — a [`Protocol`] callback, a [`Problem`]
//! evaluation, a [`Storage`] operation, or a phase the benchmark drives
//! itself. Spans stay in memory and are written out once, when the run
//! ends.

use manet::{NodeId, Protocol, ProtocolApi};
use mopt::problem::{Evaluation, Problem};
use mopt::solution::Bounds;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use store::Storage;

/// One timed call: nanoseconds since the tracer's origin, and the span it
/// ran under (`0` = a root span).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store. Decorated calls become children of the *scope*:
/// the span the single client thread most recently opened with
/// [`scoped`](Self::scoped). Decorators read the scope rather than a
/// thread-local so that calls the program makes from its own threads
/// (the service worker, MLS search threads, the batch pool) still find
/// their parent.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    scope: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            scope: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, id: u32, parent: u32, name: &'static str, start_ns: u64) {
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Times `f` as a child of the current scope and makes it the scope
    /// while `f` runs. Called from the client thread only.
    pub fn scoped<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.scope.swap(id, Ordering::SeqCst);
        let start = self.now_ns();
        let out = f();
        self.record(id, parent, name, start);
        self.scope.store(parent, Ordering::SeqCst);
        out
    }

    /// Times `f` as a child of the current scope; callable from any thread.
    pub fn leaf<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.scope.load(Ordering::SeqCst);
        let start = self.now_ns();
        let out = f();
        self.record(id, parent, name, start);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes the spans as tab-separated `id parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Summed duration of the spans named `name`, in seconds.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Seconds of `span` covered by at least one of its direct children —
/// children may overlap when the program calls a decorated layer from
/// several threads at once, so this is the length of their union.
pub fn covered_by_children(spans: &[Span], span: &Span) -> f64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered as f64 * 1e-9
}

/// [`Protocol`] decorator timing every callback, including the
/// neighbour-table reads the protocol makes inside it.
pub struct TracedProtocol<P> {
    pub inner: P,
    tracer: Arc<Tracer>,
}

impl<P> TracedProtocol<P> {
    pub fn new(inner: P, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

pub const PROTOCOL_SPANS: [&str; 3] = [
    "protocol.on_start",
    "protocol.on_receive",
    "protocol.on_timer",
];

impl<P: Protocol> Protocol for TracedProtocol<P> {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        let Self { inner, tracer } = self;
        tracer.leaf(PROTOCOL_SPANS[0], || inner.on_start(node, api));
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, rx_dbm: f64, api: &mut dyn ProtocolApi) {
        let Self { inner, tracer } = self;
        tracer.leaf(PROTOCOL_SPANS[1], || {
            inner.on_receive(node, from, rx_dbm, api)
        });
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, api: &mut dyn ProtocolApi) {
        let Self { inner, tracer } = self;
        tracer.leaf(PROTOCOL_SPANS[2], || inner.on_timer(node, tag, api));
    }
}

/// [`Problem`] decorator timing every evaluation call and counting the
/// candidates handed to it.
pub struct TracedProblem<P> {
    pub inner: P,
    tracer: Arc<Tracer>,
    pub calls: AtomicU64,
    pub candidates: AtomicU64,
}

impl<P> TracedProblem<P> {
    pub fn new(inner: P, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            calls: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        }
    }

    fn count(&self, candidates: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(candidates as u64, Ordering::Relaxed);
    }
}

pub const EVALUATE_SPAN: &str = "aedb.evaluate";

impl<P: Problem> Problem for TracedProblem<P> {
    fn bounds(&self) -> &Bounds {
        self.inner.bounds()
    }

    fn n_objectives(&self) -> usize {
        self.inner.n_objectives()
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.count(1);
        self.tracer.leaf(EVALUATE_SPAN, || self.inner.evaluate(x))
    }

    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Evaluation> {
        self.count(xs.len());
        self.tracer
            .leaf(EVALUATE_SPAN, || self.inner.evaluate_batch(xs))
    }

    fn objective_names(&self) -> Vec<String> {
        self.inner.objective_names()
    }
}

/// [`Storage`] decorator timing every operation and counting the bytes
/// that cross it.
pub struct TracedStorage<S> {
    inner: S,
    tracer: Arc<Tracer>,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
}

impl<S> TracedStorage<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }
}

pub const STORE_GET_SPAN: &str = "store.get";
pub const STORE_PUT_SPAN: &str = "store.put";

impl<S: Storage> Storage for TracedStorage<S> {
    fn get(&self, namespace: &str, key: &str) -> io::Result<Option<Vec<u8>>> {
        let got = self
            .tracer
            .leaf(STORE_GET_SPAN, || self.inner.get(namespace, key));
        if let Ok(Some(bytes)) = &got {
            self.bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        got
    }

    fn put(&self, namespace: &str, key: &str, value: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        self.tracer
            .leaf(STORE_PUT_SPAN, || self.inner.put(namespace, key, value))
    }

    fn scan(&self, namespace: &str) -> io::Result<Vec<String>> {
        self.tracer
            .leaf("store.scan", || self.inner.scan(namespace))
    }

    fn delete(&self, namespace: &str, key: &str) -> io::Result<bool> {
        self.tracer
            .leaf("store.delete", || self.inner.delete(namespace, key))
    }
}
