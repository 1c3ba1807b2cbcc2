//! Adapter plugging a [`Transport`] into the runtime engine's round barrier.

use crate::Transport;
use cc_runtime::{BcastLanes, Fabric, LinkLoads, LinkSlab, ResidentOutcome, RoundDelivery, Word};

/// Routes [`cc_runtime::Engine`] round barriers through a [`Transport`]:
/// the slab the engine gathered from its nodes' outboxes is shipped onto
/// the fabric whole ([`Transport::send_slab`]), then the broadcast slabs;
/// the barrier is the transport's round rendezvous, and its
/// [`RoundDelivery`] goes back to the engine as it is — every node's next
/// inbox is a view of the delivered slab. On the in-memory backend this is
/// the engine's default barrier ([`RoundDelivery::in_memory`]) behind a
/// transport; on the socket and TCP backends the same program traffic
/// physically crosses process boundaries. It observes nothing: round
/// tracing and link conditions read each barrier in cc-clique's `Network`,
/// which implements [`Fabric`] itself.
#[derive(Debug)]
pub struct TransportFabric<'a> {
    transport: &'a mut dyn Transport,
}

impl<'a> TransportFabric<'a> {
    /// Wraps a transport for the duration of one engine run.
    #[must_use]
    pub fn new(transport: &'a mut dyn Transport) -> Self {
        Self { transport }
    }
}

impl Fabric for TransportFabric<'_> {
    fn deliver_round(&mut self, unicast: LinkSlab, broadcast: BcastLanes) -> RoundDelivery {
        self.transport.send_slab(unicast);
        for (src, lane) in broadcast.into_iter().enumerate() {
            for slab in lane {
                self.transport.broadcast(src, slab);
            }
        }
        self.transport.finish_round()
    }

    fn is_resident(&self) -> bool {
        self.transport.is_resident()
    }

    fn run_resident(
        &mut self,
        kind: &str,
        states: Vec<Vec<Word>>,
        on_round: &mut dyn FnMut(&LinkLoads),
    ) -> Option<ResidentOutcome> {
        self.transport.run_resident(kind, states, on_round)
    }
}
