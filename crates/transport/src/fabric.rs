//! Adapter plugging a [`Transport`] into the runtime engine's round barrier.

use crate::{LinkSlab, Transport};
use cc_runtime::{Fabric, LinkLoads, NodeInbox, NodeOutbox, ResidentOutcome, Word};
use std::sync::Arc;

/// Routes [`cc_runtime::Engine`] round barriers through a [`Transport`]:
/// each engine round's outboxes are gathered into one [`LinkSlab`] and
/// shipped onto the fabric, the barrier is the transport's round
/// rendezvous, and the returned accounting comes from the transport's
/// per-link word counts. The delivered slab is cut back into the per-node
/// rows the engine's [`NodeInbox`] is made of. On the in-memory backend this is
/// behaviourally identical to the engine's built-in
/// [`cc_runtime::EngineFabric`] (same loads, same inbox assembly, shared
/// broadcast slabs); on the socket and TCP backends the same program
/// traffic physically crosses process boundaries.
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

/// One node's round as [`NodeOutbox::into_parts`] yields it: `(dst, words)`
/// unicast payloads and broadcast slabs, both in send order.
type OutboxParts = (Vec<(usize, Vec<Word>)>, Vec<Arc<[Word]>>);

/// Gathers the unicast sends of consecutive nodes' outboxes (`parts[i]`
/// belongs to node `first + i`) into one slab of an `n`-clique, each link's
/// payloads in send order.
pub(crate) fn gather_outboxes(n: usize, first: usize, parts: &[OutboxParts]) -> LinkSlab {
    let runs = parts.iter().enumerate().flat_map(|(i, (unicast, _))| {
        unicast
            .iter()
            .map(move |(dst, words)| (first + i, *dst, words.as_slice()))
    });
    LinkSlab::from_runs(n, runs)
}

impl Fabric for TransportFabric<'_> {
    fn deliver_round(
        &mut self,
        n: usize,
        outboxes: Vec<NodeOutbox>,
    ) -> (Vec<NodeInbox>, LinkLoads) {
        assert_eq!(n, self.transport.n(), "engine and transport disagree on n");
        let parts: Vec<_> = outboxes.into_iter().map(NodeOutbox::into_parts).collect();
        self.transport.send_slab(gather_outboxes(n, 0, &parts));
        for (src, (_, broadcast)) in parts.into_iter().enumerate() {
            for slab in broadcast {
                self.transport.broadcast(src, slab);
            }
        }
        let round = self.transport.finish_round();
        let inboxes = (0..n)
            .map(|dst| {
                let unicast = (0..n)
                    .map(|src| round.unicast.link(src, dst).to_vec())
                    .collect();
                NodeInbox::from_parts(unicast, round.broadcast.clone())
            })
            .collect();
        (inboxes, round.loads)
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

    fn has_fault_plan(&self) -> bool {
        self.transport.has_fault_plan()
    }

    fn take_crash(&mut self) -> Option<usize> {
        self.transport.take_crash()
    }

    fn on_recovery(&mut self, node: usize, state_words: usize) {
        self.transport.on_recovery(node, state_words);
    }
}
