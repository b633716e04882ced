//! One-hop neighbour tables maintained from received beacons.
//!
//! AEDB's cross-layer design (§III of the paper) exposes the received
//! signal strength of the periodic hello/beacon messages (every 1 s) to the
//! protocol layer: transmission-power estimation and the forwarding-area
//! test are both expressed in terms of these per-neighbour dBm readings.
//!
//! # The store
//!
//! Every beacon reception is one [`NeighborTable::observe`], so a dense
//! world performs tens of millions of them per run and the table is the
//! simulator's hottest bookkeeping structure. Each table is a flat
//! open-addressing hash table: one contiguous array of 32-byte slots keyed
//! by `u32` neighbour ids, a multiplicative (Fibonacci) hash, linear
//! probing, backward-shift deletion (no tombstones) and a load factor kept
//! at or below 3/4.
//!
//! # Eviction contract
//!
//! A table knows the world's neighbour expiry. Whenever a beacon arrives
//! from an id the table does not hold, it first evicts every entry older
//! than the expiry, so it holds at most the neighbours live at its latest
//! insertion instead of every neighbour ever heard (and its slot array
//! never grows past what those need). Updates of a known id skip the
//! eviction: they cannot grow the table, and a scan per update would cost
//! more than the updates themselves. A lower bound on the oldest stored
//! beacon makes the common "nothing can be stale" case one compare.
//!
//! Eviction is invisible to readers **as long as time is monotone**: every `now`
//! passed to [`observe`](NeighborTable::observe) and
//! [`live_into`](NeighborTable::live_into) must be at least the `now` of
//! the previous `observe`. An entry that is stale at observe time
//! (`now − last_seen > expiry`) is then stale at every later read too, so
//! evicting it cannot change what any read returns. The simulator
//! satisfies the contract by stamping each observe with the receiving
//! frame's end time, which is the event clock (the sharded path replays
//! its deferred observes in event order with the same stamps).
//!
//! # Read horizon
//!
//! The simulator writes a table only when some protocol read could still
//! return the write. Protocols read tables only inside their callbacks,
//! and a callback runs only at or after the broadcast start. A beacon
//! heard more than the expiry before that start, or heard once the
//! protocol has gone quiet (no timer armed, no data frame on air), is
//! counted but never observed. The tables are therefore exact at every
//! protocol read, not at arbitrary times: a harness that inspects them
//! during the warm-up finds them empty.

use crate::sim::NodeId;
use crate::sweep::prefetch;

/// What a node knows about one neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbour's identifier.
    pub id: NodeId,
    /// Received signal strength of its most recent beacon (dBm).
    pub rx_dbm: f64,
    /// The power the beacon was *sent* at (dBm) — carried in the hello
    /// frame, as a real cross-layer beacon would. `tx_dbm − rx_dbm` is the
    /// link's observed path loss, exact even when neighbours belong to
    /// different transmit-power classes (heterogeneous
    /// [`WorldSpec`](crate::world::WorldSpec) groups).
    pub tx_dbm: f64,
    /// Simulation time the beacon was received.
    pub last_seen: f64,
}

/// Id marking an unoccupied slot (node ids are `< u32::MAX`).
const EMPTY: u32 = u32::MAX;

/// Smallest non-zero slot count; tables grow by doubling from here.
const MIN_SLOTS: usize = 8;

/// One slot of the open-addressing array: 32 bytes, so two share a cache
/// line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    rx_dbm: f64,
    tx_dbm: f64,
    last_seen: f64,
}

const VACANT: Slot = Slot {
    id: EMPTY,
    rx_dbm: 0.0,
    tx_dbm: 0.0,
    last_seen: 0.0,
};

/// A beacon-maintained neighbour table with age-based expiry and
/// eviction (see the [module docs](self) for the layout and the
/// monotone-time contract).
#[derive(Debug, Clone)]
pub struct NeighborTable {
    /// Open-addressing slot array; its length is zero or a power of two.
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
    /// `64 − log2(slots.len())`: the shift that maps a 64-bit
    /// multiplicative hash onto a slot index.
    shift: u32,
    /// A lower bound on every stored `last_seen` (`+inf` when empty). When
    /// even this bound is live, no entry can be stale and eviction is
    /// skipped with one compare.
    oldest: f64,
    /// Entries older than this many seconds are dead and evicted.
    expiry: f64,
    /// Time of the latest insertion of a new id (`-inf` before the
    /// first); see [`last_insert`](NeighborTable::last_insert).
    last_insert: f64,
}

impl NeighborTable {
    /// Creates an empty table whose entries expire after `expiry` seconds.
    pub fn new(expiry: f64) -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
            shift: 64,
            oldest: f64::INFINITY,
            expiry,
            last_insert: f64::NEG_INFINITY,
        }
    }

    /// Drops every entry and adopts a new expiry, retaining the slot
    /// array's allocation (simulator reuse).
    pub fn reset(&mut self, expiry: f64) {
        self.slots.fill(VACANT);
        self.len = 0;
        self.oldest = f64::INFINITY;
        self.expiry = expiry;
        self.last_insert = f64::NEG_INFINITY;
    }

    #[inline(always)]
    fn home(&self, id: u32) -> usize {
        // Fibonacci hashing: the top bits of `id · 2^64/φ`.
        ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Records a beacon from `id` received at `rx_dbm` (sent at `tx_dbm`)
    /// at time `now`, overwriting any previous reading. When `id` is new
    /// to the table, every entry stale at `now` is evicted first. `now`
    /// must not precede the previous observe's (see the module docs).
    ///
    /// # Panics
    /// Panics if `id` does not fit a `u32` below `u32::MAX`.
    pub fn observe(&mut self, id: NodeId, rx_dbm: f64, tx_dbm: f64, now: f64) {
        let id = u32::try_from(id)
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("neighbour id must fit below u32::MAX");
        let slot = Slot {
            id,
            rx_dbm,
            tx_dbm,
            last_seen: now,
        };
        if !self.slots.is_empty() {
            let mask = self.slots.len() - 1;
            let mut i = self.home(id);
            loop {
                let s = &mut self.slots[i];
                if s.id == id {
                    // `oldest` stays a valid lower bound: the entry only
                    // got younger.
                    *s = slot;
                    return;
                }
                if s.id == EMPTY {
                    break;
                }
                i = (i + 1) & mask;
            }
            // A new id. Fast path: nothing can be stale and there is room,
            // so it takes the empty slot the probe ended on.
            if now - self.oldest <= self.expiry && (self.len + 1) * 4 <= self.slots.len() * 3 {
                self.slots[i] = slot;
                self.len += 1;
                self.last_insert = now;
                return;
            }
        }
        self.insert_slow(slot);
    }

    /// Inserts a new id after evicting every entry stale at its time and
    /// growing the array if the load would pass 3/4.
    #[cold]
    fn insert_slow(&mut self, slot: Slot) {
        let now = slot.last_seen;
        if now - self.oldest > self.expiry {
            self.evict(now);
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        self.insert_new(slot);
        self.len += 1;
        self.oldest = self.oldest.min(now);
        self.last_insert = now;
    }

    /// Hints the CPU to load the slot where a lookup of `id` starts. Reads
    /// the table header, so it pays off once that header is cached.
    #[inline(always)]
    fn prefetch_home(&self, id: NodeId) {
        if !self.slots.is_empty() {
            let i = self.home(id as u32);
            prefetch(&self.slots[i] as *const Slot);
        }
    }

    /// Places an id known to be absent into the first empty slot of its
    /// probe sequence.
    fn insert_new(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot.id);
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Doubles the slot array and rehashes every entry.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_len]);
        self.shift = 64 - new_len.trailing_zeros();
        for s in old.into_iter().filter(|s| s.id != EMPTY) {
            self.insert_new(s);
        }
    }

    /// Removes slot `i` by shifting the rest of its probe cluster back
    /// (backward-shift deletion), so lookups never need tombstones.
    fn remove_at(&mut self, mut i: usize) {
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.id == EMPTY {
                break;
            }
            // `s` may fill the hole at `i` only if its home does not lie
            // cyclically in `(i, j]`.
            let home = self.home(s.id);
            let reachable = if i <= j {
                home <= i || home > j
            } else {
                home <= i && home > j
            };
            if reachable {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = VACANT;
        self.len -= 1;
    }

    /// Evicts every entry that is stale at `now` and tightens `oldest`
    /// to the exact minimum of the survivors.
    fn evict(&mut self, now: f64) {
        let mut oldest = f64::INFINITY;
        let mut i = 0;
        while i < self.slots.len() {
            let s = self.slots[i];
            if s.id != EMPTY && now - s.last_seen > self.expiry {
                // The shift may pull a later entry into `i`: re-examine
                // it. A shift only moves entries into slots the scan has
                // not passed, or (when a cluster wraps past the end) into
                // passed slots from other passed slots, whose entries were
                // already examined and kept — so every stale entry is seen.
                self.remove_at(i);
                continue;
            }
            if s.id != EMPTY {
                oldest = oldest.min(s.last_seen);
            }
            i += 1;
        }
        self.oldest = oldest;
    }

    /// Live entries at time `now` (beacons at most the table's expiry
    /// old), sorted by id. Allocates a fresh vector per call — hot paths
    /// should prefer [`live_into`](Self::live_into).
    pub fn live(&self, now: f64) -> Vec<NeighborEntry> {
        let mut v = Vec::new();
        self.live_into(now, &mut v);
        v
    }

    /// Allocation-free variant of [`live`](Self::live): clears `out` and
    /// fills it with the live entries in the same deterministic (id-sorted)
    /// order, reusing its capacity. The protocol hot path calls this once
    /// per forwarding decision, thousands of times per simulation.
    pub fn live_into(&self, now: f64, out: &mut Vec<NeighborEntry>) {
        debug_assert!(
            now >= self.last_insert,
            "read at {now} precedes the latest insertion at {}",
            self.last_insert
        );
        out.clear();
        out.extend(
            self.slots
                .iter()
                .filter(|s| s.id != EMPTY && now - s.last_seen <= self.expiry)
                .map(|s| NeighborEntry {
                    id: s.id as NodeId,
                    rx_dbm: s.rx_dbm,
                    tx_dbm: s.tx_dbm,
                    last_seen: s.last_seen,
                }),
        );
        // Deterministic order regardless of slot placement.
        out.sort_unstable_by_key(|e| e.id);
    }

    /// Time of the latest observe that inserted a new id (`-inf` if none
    /// since the last reset). That observe evicted every stale entry, so
    /// each stored entry was live then: the table holds at most the
    /// neighbours live at its last insertion.
    pub fn last_insert(&self) -> f64 {
        self.last_insert
    }

    /// Stored entries: every entry live at
    /// [`last_insert`](Self::last_insert), some of which may have gone
    /// stale since (evicted when the next new id arrives).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots allocated: zero, or a power of two between 4/3 and 8/3 of the
    /// peak entry count since the table was created (at least 8). The
    /// table's memory is 32 bytes per slot.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// How many receivers ahead [`observe_all`] prefetches a table header;
/// the home slot is prefetched at half that distance, once the header is
/// warm.
const PREFETCH_AHEAD: usize = 8;

/// Records one beacon from `from` (sent at `tx_dbm`) at every receiver of
/// `deliveries` (`(receiver, rx_dbm)` pairs) at time `now`: one
/// [`NeighborTable::observe`] per pair, in order.
///
/// The receivers' tables are scattered across a multi-megabyte array, so
/// a plain loop stalls on two cache misses per receiver (table header,
/// then slot). The receiver list is known up front, so the loop
/// prefetches the header `PREFETCH_AHEAD` receivers ahead and the home
/// slot half as far ahead; the results are those of the plain loop.
pub fn observe_all(
    tables: &mut [NeighborTable],
    from: NodeId,
    tx_dbm: f64,
    now: f64,
    deliveries: &[(NodeId, f64)],
) {
    for (k, &(r, rx_dbm)) in deliveries.iter().enumerate() {
        if let Some(&(ahead, _)) = deliveries.get(k + PREFETCH_AHEAD) {
            prefetch(&tables[ahead] as *const NeighborTable);
        }
        if let Some(&(ahead, _)) = deliveries.get(k + PREFETCH_AHEAD / 2) {
            tables[ahead].prefetch_home(from);
        }
        tables[r].observe(from, rx_dbm, tx_dbm, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    #[test]
    fn observe_and_query() {
        let mut t = NeighborTable::new(2.5);
        t.observe(3, -70.0, 16.02, 1.0);
        t.observe(5, -80.0, 16.02, 1.5);
        let live = t.live(2.0);
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].id, 3);
        assert_eq!(live[0].rx_dbm, -70.0);
        assert_eq!(live[1].id, 5);
    }

    #[test]
    fn newer_beacon_overwrites() {
        let mut t = NeighborTable::new(10.0);
        t.observe(1, -70.0, 16.02, 1.0);
        t.observe(1, -75.0, 16.02, 2.0);
        let live = t.live(2.0);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].rx_dbm, -75.0);
        assert_eq!(live[0].last_seen, 2.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn stale_entries_filtered_then_evicted() {
        let mut t = NeighborTable::new(2.5);
        t.observe(1, -70.0, 16.02, 0.0);
        t.observe(2, -70.0, 16.02, 9.0);
        // The observe at 9.0 already found entry 1 stale and evicted it.
        assert_eq!(t.len(), 1);
        let live = t.live(10.0);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id, 2);
        // A read filters entries that went stale since the last observe;
        // the next observe evicts them.
        assert!(t.live(12.0).is_empty());
        assert_eq!(t.len(), 1);
        t.observe(3, -60.0, 16.02, 12.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn updates_do_not_evict() {
        let mut t = NeighborTable::new(2.5);
        t.observe(1, -70.0, 16.02, 0.0);
        t.observe(2, -70.0, 16.02, 0.0);
        t.observe(1, -71.0, 16.02, 5.0);
        assert_eq!(t.last_insert(), 0.0);
        assert_eq!(t.len(), 2, "entry 2 is stale but only a new id evicts");
        assert_eq!(t.live(5.0).len(), 1);
        t.observe(4, -70.0, 16.02, 5.0);
        assert_eq!(t.last_insert(), 5.0);
        assert_eq!(t.len(), 2);
        let ids: Vec<_> = t.live(5.0).iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn live_is_sorted_by_id() {
        let mut t = NeighborTable::new(1.0);
        for id in [9, 2, 7, 1, 5] {
            t.observe(id, -50.0, 16.02, 0.0);
        }
        let ids: Vec<_> = t.live(0.0).iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn load_factor_stays_at_most_three_quarters() {
        let mut t = NeighborTable::new(100.0);
        for id in 0..1000 {
            t.observe(id * 7919, -50.0, 16.02, 0.0);
            assert!(t.len() * 4 <= t.capacity() * 3);
            assert!(t.capacity().is_power_of_two());
        }
        assert_eq!(t.live(0.0).len(), 1000);
    }

    #[test]
    fn reset_keeps_capacity_and_adopts_expiry() {
        let mut t = NeighborTable::new(1.0);
        for id in 0..20 {
            t.observe(id, -50.0, 16.02, 0.0);
        }
        let cap = t.capacity();
        t.reset(5.0);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap);
        t.observe(3, -50.0, 16.02, 0.0);
        assert_eq!(t.live(4.0).len(), 1, "new expiry applies");
    }
}
