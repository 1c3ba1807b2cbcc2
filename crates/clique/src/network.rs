//! Link-level execution: a thin shell over the pluggable transport.

use crate::inbox::Inboxes;
use crate::word::Word;
// The cost model (`LinkLoads`) lives in `cc_runtime` so that engine-driven
// and flush-driven accounting share one source of truth; this crate
// re-exports it from `lib.rs`.
use cc_runtime::LinkLoads;
use cc_transport::{LinkSlab, RoundDelivery, Transport};
use std::sync::Arc;

/// The physical network: one round's words on every directed link, carried
/// by a pluggable [`Transport`] backend.
///
/// A communication step builds its traffic as one flat [`LinkSlab`]
/// ([`Network::send_slab`]) and `flush` executes the round barrier; in each
/// synchronous round a link moves exactly one word, so the step costs as
/// many rounds as the longest link. Self-addressed words (`src == dst`) are
/// local memory moves and cost nothing, matching the model (a node need not
/// use the network to talk to itself).
///
/// Where the traffic physically travels is the transport's business: the
/// in-memory backend moves the slab straight into the delivery, and the
/// socket and TCP backends ship it shard by shard to worker processes. All are
/// bit-identical in deliveries, loads, and therefore rounds and pattern
/// fingerprints.
#[derive(Debug)]
pub struct Network {
    n: usize,
    transport: Box<dyn Transport>,
}

impl Network {
    pub(crate) fn new(n: usize, transport: Box<dyn Transport>) -> Self {
        assert_eq!(transport.n(), n, "transport sized for a different clique");
        Self { n, transport }
    }

    /// Queues a whole round's unicast traffic in one call.
    pub(crate) fn send_slab(&mut self, slab: LinkSlab) {
        self.transport.send_slab(slab);
    }

    /// Queues a broadcast slab from `src` (delivered to every node, the
    /// sender included; charged on the `n - 1` outgoing links).
    pub(crate) fn enqueue_broadcast(&mut self, src: usize, slab: Arc<[Word]>) {
        assert!(src < self.n, "node index out of range (n={})", self.n);
        self.transport.broadcast(src, slab);
    }

    /// Executes the round barrier, returning the delivered unicast messages
    /// and the loads that determine the round cost.
    pub(crate) fn flush(&mut self) -> (Inboxes, LinkLoads) {
        let round = self.transport.finish_round();
        (Inboxes::from_slab(round.unicast), round.loads)
    }

    /// Executes the round barrier, returning the full delivery (unicast
    /// slab and broadcast lanes) for primitives that ship slabs.
    pub(crate) fn flush_full(&mut self) -> RoundDelivery {
        self.transport.finish_round()
    }

    /// The transport carrying this network's traffic.
    pub(crate) fn transport_mut(&mut self) -> &mut dyn Transport {
        &mut *self.transport
    }

    /// Completed round barriers (the transport epoch).
    pub(crate) fn epochs(&self) -> u64 {
        self.transport.epoch()
    }

    /// Encoded payload bytes the orchestrating process shipped onto the
    /// fabric (see [`Transport::orchestrator_bytes`]).
    pub(crate) fn orchestrator_bytes(&self) -> u64 {
        self.transport.orchestrator_bytes()
    }

    /// Cumulative simulated network time (see [`Transport::sim_time_ns`]);
    /// `0` on an unconditioned fabric.
    pub(crate) fn sim_time_ns(&self) -> u64 {
        self.transport.sim_time_ns()
    }

    /// Simulated retransmissions performed so far (see
    /// [`Transport::net_retransmits`]).
    pub(crate) fn net_retransmits(&self) -> u64 {
        self.transport.net_retransmits()
    }

    /// Simulated node faults injected so far (see
    /// [`Transport::net_faults`]).
    pub(crate) fn net_faults(&self) -> u64 {
        self.transport.net_faults()
    }

    /// The backend's name, for diagnostics.
    pub(crate) fn transport_name(&self) -> &'static str {
        self.transport.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_runtime::Executor;
    use cc_transport::{InMemoryTransport, TransportKind};

    fn net(n: usize) -> Network {
        Network::new(n, Box::new(InMemoryTransport::new(n)))
    }

    #[test]
    fn flush_counts_max_queue_as_rounds() {
        let mut net = net(3);
        net.transport.send(0, 1, &[1, 2, 3]);
        net.transport.send(1, 2, &[4]);
        net.transport.send(2, 0, &[5, 6]);
        let (ib, loads) = net.flush();
        assert_eq!(loads.rounds(), 3);
        assert_eq!(loads.words(), 6);
        assert_eq!(ib.received(1, 0), &[1, 2, 3]);
        assert_eq!(ib.received(2, 1), &[4]);
        assert_eq!(ib.received(0, 2), &[5, 6]);
        // Queues are drained.
        let (_, loads2) = net.flush();
        assert_eq!(loads2.rounds(), 0);
        assert_eq!(net.epochs(), 2);
    }

    #[test]
    fn self_messages_are_free() {
        let mut net = net(2);
        net.transport.send(0, 0, &[7, 8, 9]);
        net.transport.send(0, 1, &[1]);
        let (ib, loads) = net.flush();
        assert_eq!(loads.rounds(), 1);
        assert_eq!(loads.words(), 1);
        assert_eq!(ib.received(0, 0), &[7, 8, 9]);
    }

    #[test]
    fn every_backend_matches_the_sequential_reference() {
        let fill = |net: &mut Network| {
            // A mix of hot links, self messages, empty queues, broadcasts.
            for src in 0..7 {
                for dst in 0..7 {
                    if (src + 2 * dst) % 3 == 0 {
                        let words: Vec<Word> = (0..(src + dst) as u64 % 5)
                            .map(|w| w + 10 * src as u64)
                            .collect();
                        net.transport.send(src, dst, &words);
                    }
                }
            }
            net.transport.send(0, 1, &[99, 98, 97]);
            net.enqueue_broadcast(4, vec![1, 2].into());
        };
        let mut reference = net(7);
        fill(&mut reference);
        let reference = reference.flush_full();
        let backends: Vec<Box<dyn Transport>> = vec![
            TransportKind::Tcp {
                workers: 2,
                resident: false,
                addr: None,
            }
            .build(7, Executor::default()),
            TransportKind::Socket { workers: 3 }.build(7, Executor::default()),
        ];
        for backend in backends {
            let name = backend.name();
            let mut n = Network::new(7, backend);
            fill(&mut n);
            assert_eq!(n.flush_full(), reference, "{name} diverged");
            // Backend drains its queues too.
            let (_, after) = n.flush();
            assert_eq!(after.rounds(), 0, "{name} left traffic queued");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn enqueue_validates_indices() {
        let mut net = net(2);
        net.transport.send(0, 5, &[1]);
    }
}
