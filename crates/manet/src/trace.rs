//! Protocol-event tracing: a decorator that records every callback a
//! protocol receives, with timestamps and outgoing actions.
//!
//! Wrap any [`Protocol`] in [`Traced`] to get a per-run event log — useful
//! to debug a dissemination step by step ("why did node 7 not forward?"),
//! to visualise broadcast trees, and to write fine-grained protocol tests
//! without re-implementing the simulator's bookkeeping.

use crate::protocol::{Protocol, ProtocolApi};
use crate::sim::NodeId;
use std::cell::RefCell;
use std::rc::Rc;

/// One recorded protocol event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The dissemination started at `node`.
    Start {
        /// Source node.
        node: NodeId,
        /// Simulation time (s).
        time: f64,
    },
    /// `node` received the broadcast frame from `from` at `rx_dbm`.
    Receive {
        /// Receiving node.
        node: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// Received power (dBm).
        rx_dbm: f64,
        /// Simulation time (s).
        time: f64,
    },
    /// A protocol timer fired at `node`.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Opaque tag passed at arming time.
        tag: u64,
        /// Simulation time (s).
        time: f64,
    },
    /// `node` transmitted the broadcast frame at `tx_dbm`.
    Transmit {
        /// Transmitting node.
        node: NodeId,
        /// Transmit power (dBm).
        tx_dbm: f64,
        /// Simulation time (s).
        time: f64,
    },
}

impl TraceEvent {
    /// The simulation time of the event.
    pub fn time(&self) -> f64 {
        match self {
            TraceEvent::Start { time, .. }
            | TraceEvent::Receive { time, .. }
            | TraceEvent::Timer { time, .. }
            | TraceEvent::Transmit { time, .. } => *time,
        }
    }
}

/// Shared, clonable handle to a trace buffer (the simulator owns the
/// protocol, so the caller keeps this handle to read the log afterwards).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, e: TraceEvent) {
        self.events.borrow_mut().push(e);
    }

    /// A snapshot of all recorded events, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// The transmissions in the log as `(node, tx_dbm, time)` tuples —
    /// the broadcast tree's edges start here.
    pub fn transmissions(&self) -> Vec<(NodeId, f64, f64)> {
        self.events
            .borrow()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Transmit { node, tx_dbm, time } => Some((*node, *tx_dbm, *time)),
                _ => None,
            })
            .collect()
    }

    /// For each node, the sender of its *first* successful reception —
    /// the parent relation of the broadcast tree. Source nodes (which
    /// originated the message and may later hear echoes of it) get no
    /// parent.
    pub fn broadcast_tree(&self) -> Vec<(NodeId, NodeId)> {
        let mut seen = std::collections::HashSet::new();
        for e in self.events.borrow().iter() {
            if let TraceEvent::Start { node, .. } = e {
                seen.insert(*node);
            }
        }
        let mut tree = Vec::new();
        for e in self.events.borrow().iter() {
            if let TraceEvent::Receive { node, from, .. } = e {
                if seen.insert(*node) {
                    tree.push((*from, *node));
                }
            }
        }
        tree
    }
}

/// An [`ProtocolApi`] shim that forwards to the real API while recording
/// outgoing transmissions.
struct RecordingApi<'a> {
    inner: &'a mut dyn ProtocolApi,
    log: &'a TraceLog,
}

impl ProtocolApi for RecordingApi<'_> {
    fn now(&self) -> f64 {
        self.inner.now()
    }
    fn set_timer(&mut self, node: NodeId, delay: f64, tag: u64) {
        self.inner.set_timer(node, delay, tag);
    }
    fn transmit(&mut self, node: NodeId, tx_dbm: f64) {
        self.log.push(TraceEvent::Transmit {
            node,
            tx_dbm,
            time: self.inner.now(),
        });
        self.inner.transmit(node, tx_dbm);
    }
    fn neighbors(&self, node: NodeId) -> Vec<crate::neighbor::NeighborEntry> {
        self.inner.neighbors(node)
    }
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<crate::neighbor::NeighborEntry>) {
        self.inner.neighbors_into(node, out);
    }
    fn default_tx_dbm(&self) -> f64 {
        self.inner.default_tx_dbm()
    }
    fn node_tx_dbm(&self, node: NodeId) -> f64 {
        self.inner.node_tx_dbm(node)
    }
    fn rx_sensitivity_dbm(&self) -> f64 {
        self.inner.rx_sensitivity_dbm()
    }
    fn rand(&mut self) -> f64 {
        self.inner.rand()
    }
}

/// Decorator recording every callback of the wrapped protocol.
pub struct Traced<P> {
    inner: P,
    log: TraceLog,
}

impl<P> Traced<P> {
    /// Wraps `inner`; keep a clone of `log` to inspect events afterwards.
    pub fn new(inner: P, log: TraceLog) -> Self {
        Self { inner, log }
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        self.log.push(TraceEvent::Start {
            node,
            time: api.now(),
        });
        let mut rec = RecordingApi {
            inner: api,
            log: &self.log,
        };
        self.inner.on_start(node, &mut rec);
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, rx_dbm: f64, api: &mut dyn ProtocolApi) {
        self.log.push(TraceEvent::Receive {
            node,
            from,
            rx_dbm,
            time: api.now(),
        });
        let mut rec = RecordingApi {
            inner: api,
            log: &self.log,
        };
        self.inner.on_receive(node, from, rx_dbm, &mut rec);
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, api: &mut dyn ProtocolApi) {
        self.log.push(TraceEvent::Timer {
            node,
            tag,
            time: api.now(),
        });
        let mut rec = RecordingApi {
            inner: api,
            log: &self.log,
        };
        self.inner.on_timer(node, tag, &mut rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec2;
    use crate::protocol::Flooding;
    use crate::sim::{Placement, SimConfig, Simulator};

    fn traced_chain_run_seed(seed: u64) -> (TraceLog, crate::sim::SimReport) {
        let mut c = SimConfig::paper(3, seed);
        c.mobility = crate::mobility::MobilityModel::Stationary;
        c.placement = Placement::Explicit(vec![
            Vec2::new(10.0, 250.0),
            Vec2::new(130.0, 250.0),
            Vec2::new(250.0, 250.0),
        ]);
        let log = TraceLog::new();
        let protocol = Traced::new(Flooding::new(3, (0.01, 0.02)), log.clone());
        let report = Simulator::new(c, protocol).run();
        (log, report)
    }

    fn traced_chain_run() -> (TraceLog, crate::sim::SimReport) {
        traced_chain_run_seed(1)
    }

    /// A seed where the full chain disseminates (occasionally a beacon
    /// collides with the single data frame — that is correct channel
    /// behaviour, but this module tests the *tracer*, so pick a clean run).
    fn traced_full_chain() -> (TraceLog, crate::sim::SimReport) {
        for seed in 1..20 {
            let (log, report) = traced_chain_run_seed(seed);
            if report.broadcast.coverage() == 2 {
                return (log, report);
            }
        }
        panic!("no seed disseminated across the 3-node chain");
    }

    #[test]
    fn records_start_receive_transmit() {
        let (log, report) = traced_chain_run();
        assert!(!log.is_empty());
        let events = log.events();
        assert!(matches!(events[0], TraceEvent::Start { node: 0, .. }));
        let n_tx = log.transmissions().len();
        // source + forwardings
        assert_eq!(n_tx, 1 + report.broadcast.forwardings);
        // times are monotone
        let times: Vec<f64> = events.iter().map(|e| e.time()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn broadcast_tree_is_consistent() {
        let (log, report) = traced_full_chain();
        let tree = log.broadcast_tree();
        // every covered node has exactly one parent
        assert_eq!(tree.len(), report.broadcast.coverage());
        // the chain forces node 2 to hear from node 1, not 0
        let parent_of_2 = tree.iter().find(|(_, c)| *c == 2).map(|(p, _)| *p);
        assert_eq!(parent_of_2, Some(1));
    }

    #[test]
    fn tracing_does_not_change_a_heterogeneous_run() {
        // The source sits in the 20 dBm group: a tracer that dropped the
        // node's power class would flood at the radio default instead.
        let mut spec = crate::world::DenseScenario::parse_spec("100@200+50:still:20dbm")
            .unwrap()
            .world_spec(0);
        let loud = spec
            .groups
            .iter()
            .position(|g| g.tx_power_dbm == Some(20.0))
            .unwrap();
        spec.source = spec.groups[..loud].iter().map(|g| g.n).sum();
        let n = spec.n_nodes();
        let plain = Simulator::from_world(&spec, Flooding::new(n, (0.0, 0.05))).run();
        let log = TraceLog::new();
        let traced = Traced::new(Flooding::new(n, (0.0, 0.05)), log.clone());
        let report = Simulator::from_world(&spec, traced).run();
        assert_eq!(report.broadcast, plain.broadcast);
        assert_eq!(report.counters, plain.counters);
        assert_eq!(
            log.transmissions()[0].1,
            20.0,
            "the source floods at its class"
        );
    }

    #[test]
    fn transmit_powers_recorded() {
        let (log, _) = traced_chain_run();
        for (_, tx_dbm, _) in log.transmissions() {
            assert!((tx_dbm - 16.02).abs() < 1e-9, "flooding is full power");
        }
    }
}
