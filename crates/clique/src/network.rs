//! Link-level execution: a thin shell over the pluggable transport, and
//! the one place the orchestrating process observes a committed barrier.

use crate::inbox::Inboxes;
use crate::word::Word;
use cc_netsim::Netsim;
// The cost model (`LinkLoads`) lives in `cc_runtime` so that engine-driven
// and flush-driven accounting share one source of truth; this crate
// re-exports it from `lib.rs`.
use cc_runtime::{BcastLanes, Fabric, LinkLoads, ResidentOutcome};
use cc_telemetry::{Event, LinkHistogram, TraceLevel};
use cc_transport::{LinkSlab, RoundDelivery, Transport};
use std::sync::Arc;
use std::time::Instant;

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
///
/// Every barrier the orchestrator commits — a closure primitive's flush, a
/// classical engine round ([`Fabric`]), a resident session's rounds — is
/// observed here and nowhere else: round tracing emits
/// [`Event::TransportRound`] (resident rounds excepted, whose traffic never
/// crosses this process), and the [`Netsim`], when a profile is on, reads
/// the committed epoch and loads.
#[derive(Debug)]
pub struct Network {
    n: usize,
    transport: Box<dyn Transport>,
    netsim: Option<Netsim>,
    /// Round tracing was on when the network was built: like the global
    /// telemetry handle, fixed for the network's lifetime.
    traced: bool,
}

impl Network {
    pub(crate) fn new(n: usize, transport: Box<dyn Transport>, netsim: Option<Netsim>) -> Self {
        assert_eq!(transport.n(), n, "transport sized for a different clique");
        Self {
            n,
            transport,
            netsim,
            traced: cc_telemetry::global().enabled(TraceLevel::Rounds),
        }
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
        let round = self.flush_full();
        (Inboxes::from_slab(round.unicast), round.loads)
    }

    /// Executes the round barrier, returning the full delivery (unicast
    /// slab and broadcast lanes) for primitives that ship slabs. Every
    /// barrier the orchestrator commits comes through here, and so do its
    /// observers: the traced barrier's wall-clock and link statistics,
    /// then the link conditions of the epoch it committed.
    pub(crate) fn flush_full(&mut self) -> RoundDelivery {
        let round = if self.traced {
            let start = Instant::now();
            let round = self.transport.finish_round();
            let barrier_ns = start.elapsed().as_nanos() as u64;
            self.trace_round(&round.loads, barrier_ns);
            round
        } else {
            self.transport.finish_round()
        };
        if let Some(netsim) = &mut self.netsim {
            // `finish_round` already advanced the epoch; condition the one
            // this barrier committed.
            netsim.on_round(self.transport.epoch() - 1, &round.loads);
        }
        round
    }

    /// Emits the [`Event::TransportRound`] of the barrier that just
    /// committed: link count, words, max-vs-mean skew, a per-link
    /// word-count histogram, and the barrier wall-clock.
    fn trace_round(&self, loads: &LinkLoads, barrier_ns: u64) {
        cc_telemetry::global().emit(TraceLevel::Rounds, || {
            let mut links = 0usize;
            let mut words = 0u64;
            let mut max_link = 0u64;
            let mut hist = LinkHistogram::default();
            for (_, _, w) in loads.iter() {
                let w = w as u64;
                links += 1;
                words += w;
                max_link = max_link.max(w);
                hist.add(w);
            }
            Event::TransportRound {
                backend: self.transport.name(),
                epoch: self.transport.epoch() - 1,
                links,
                words,
                max_link,
                mean_link: if links > 0 {
                    words as f64 / links as f64
                } else {
                    0.0
                },
                barrier_ns,
                hist,
            }
        });
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

    /// Cumulative simulated network time (see [`Netsim::sim_time_ns`]);
    /// `0` on an unconditioned fabric.
    pub(crate) fn sim_time_ns(&self) -> u64 {
        self.netsim.as_ref().map_or(0, Netsim::sim_time_ns)
    }

    /// Simulated retransmissions performed so far (see
    /// [`Netsim::retransmits`]).
    pub(crate) fn net_retransmits(&self) -> u64 {
        self.netsim.as_ref().map_or(0, Netsim::retransmits)
    }

    /// Simulated node faults injected so far (see [`Netsim::faults`]).
    pub(crate) fn net_faults(&self) -> u64 {
        self.netsim.as_ref().map_or(0, Netsim::faults)
    }

    /// The backend's name, for diagnostics.
    pub(crate) fn transport_name(&self) -> &'static str {
        self.transport.name()
    }
}

/// Engine rounds reach the same barrier as the closure primitives: the
/// gathered slab and the broadcast lanes ship onto the transport, and the
/// committed round is observed like any flush.
impl Fabric for Network {
    fn deliver_round(&mut self, unicast: LinkSlab, broadcast: BcastLanes) -> RoundDelivery {
        self.transport.send_slab(unicast);
        for (src, lane) in broadcast.into_iter().enumerate() {
            for slab in lane {
                self.transport.broadcast(src, slab);
            }
        }
        self.flush_full()
    }

    fn is_resident(&self) -> bool {
        // A fault plan needs the checkpointable classical loop: resident
        // sessions run to completion worker-side and cannot be interrupted
        // for a mid-flight restart.
        self.transport.is_resident() && !self.has_fault_plan()
    }

    fn run_resident(
        &mut self,
        kind: &str,
        states: Vec<Vec<Word>>,
        on_round: &mut dyn FnMut(&LinkLoads),
    ) -> Option<ResidentOutcome> {
        let Some(netsim) = &mut self.netsim else {
            return self.transport.run_resident(kind, states, on_round);
        };
        // Resident rounds commit one epoch each, counted from the epoch
        // before the session.
        let mut epoch = self.transport.epoch();
        self.transport.run_resident(kind, states, &mut |loads| {
            netsim.on_round(epoch, loads);
            epoch += 1;
            on_round(loads);
        })
    }

    fn has_fault_plan(&self) -> bool {
        self.netsim.as_ref().is_some_and(Netsim::has_fault_plan)
    }

    fn take_crash(&mut self) -> Option<usize> {
        self.netsim.as_mut()?.take_crash()
    }

    fn on_recovery(&mut self, node: usize, state_words: usize) {
        if let Some(netsim) = &mut self.netsim {
            netsim.on_recovery(self.transport.epoch() - 1, node, state_words);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_runtime::Executor;
    use cc_transport::{InMemoryTransport, TransportKind};

    fn net(n: usize) -> Network {
        Network::new(n, Box::new(InMemoryTransport::new(n)), None)
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
            let mut n = Network::new(7, backend, None);
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
