//! The single-process shared-memory backend: the round's slab moved from
//! sender to delivery, behind the [`Transport`] trait.

use crate::pending::Pending;
use crate::{LinkSlab, RoundDelivery, Transport};
use cc_runtime::Word;
use std::sync::Arc;

/// The classical fabric. Queued unicast traffic is one [`LinkSlab`] — built
/// by whoever generated the round and handed over with
/// [`Transport::send_slab`] — and the barrier **moves** it into the
/// [`RoundDelivery`]: no word is copied and no per-link queue exists.
/// Rounds assembled from several `send`/`send_slab` calls are merged by one
/// counting sort first. A round that is exactly one slab carrying its own
/// loads ([`LinkSlab::with_loads`]) and no broadcast is charged those loads
/// as they are; any other round is accounted off the slab's offset table in
/// one pass. Either way the loads are the ones every other backend reports,
/// so round counts and pattern fingerprints are identical.
///
/// Broadcast slabs are delivered zero-copy: [`RoundDelivery::broadcast`]
/// holds the sender's own `Arc<[Word]>` allocations, once per source.
#[derive(Debug)]
pub struct InMemoryTransport {
    pending: Pending,
    epoch: u64,
}

impl InMemoryTransport {
    /// Creates the fabric for `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            pending: Pending::new(n),
            epoch: 0,
        }
    }
}

impl Transport for InMemoryTransport {
    fn name(&self) -> &'static str {
        "inmemory"
    }

    fn n(&self) -> usize {
        self.pending.n()
    }

    fn send(&mut self, src: usize, dst: usize, words: &[Word]) {
        self.pending.send(src, dst, words);
    }

    fn send_slab(&mut self, slab: LinkSlab) {
        self.pending.send_slab(slab);
    }

    fn broadcast(&mut self, src: usize, slab: Arc<[Word]>) {
        self.pending.broadcast(src, slab);
    }

    fn finish_round(&mut self) -> RoundDelivery {
        let mut unicast = self.pending.take_slab();
        let broadcast = self.pending.take_bcasts();
        let loads = match unicast.take_loads() {
            Some(loads) if broadcast.iter().all(Vec::is_empty) => loads,
            _ => unicast.link_loads(&broadcast),
        };
        self.epoch += 1;
        RoundDelivery {
            unicast,
            broadcast,
            loads,
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_equal_max_link_queue_and_queues_drain() {
        let mut t = InMemoryTransport::new(3);
        t.send(0, 1, &[1, 2, 3]);
        t.send(1, 2, &[4]);
        t.send(2, 0, &[5, 6]);
        let rd = t.finish_round();
        assert_eq!(rd.loads.rounds(), 3);
        assert_eq!(rd.loads.words(), 6);
        assert_eq!(rd.unicast.link(0, 1), &[1, 2, 3]);
        assert_eq!(rd.unicast.link(1, 2), &[4]);
        assert_eq!(rd.unicast.link(2, 0), &[5, 6]);
        assert_eq!(t.epoch(), 1);
        let empty = t.finish_round();
        assert_eq!(empty.loads.rounds(), 0);
        assert_eq!(empty.unicast.total_words(), 0);
        assert_eq!(t.epoch(), 2);
    }

    #[test]
    fn self_messages_are_delivered_free() {
        let mut t = InMemoryTransport::new(2);
        t.send(0, 0, &[7, 8, 9]);
        t.send(0, 1, &[1]);
        let rd = t.finish_round();
        assert_eq!(rd.loads.rounds(), 1);
        assert_eq!(rd.loads.words(), 1);
        assert_eq!(rd.unicast.link(0, 0), &[7, 8, 9]);
    }

    #[test]
    fn broadcast_slabs_are_shared_and_charged_per_link() {
        let mut t = InMemoryTransport::new(4);
        let slab: Arc<[Word]> = vec![5, 6].into();
        t.broadcast(1, slab.clone());
        let rd = t.finish_round();
        // 2 words on each of the 3 outgoing links.
        assert_eq!(rd.loads.rounds(), 2);
        assert_eq!(rd.loads.words(), 6);
        assert_eq!(rd.broadcast[1].len(), 1, "one lane, shared by all four");
        assert!(
            Arc::ptr_eq(&rd.broadcast[1][0], &slab),
            "delivery must share the sender's allocation"
        );
    }

    #[test]
    fn a_whole_round_sent_as_a_slab_is_moved_not_copied() {
        let mut t = InMemoryTransport::new(3);
        let slab = LinkSlab::from_runs(
            3,
            [(0usize, 1usize, &[1u64, 2][..]), (2, 1, &[3][..])].into_iter(),
        );
        let at = slab.link(0, 1).as_ptr();
        t.send_slab(slab);
        let rd = t.finish_round();
        assert_eq!(rd.unicast.link(0, 1).as_ptr(), at);
        let got: Vec<_> = rd.loads.iter().collect();
        assert_eq!(got, vec![(0, 1, 2), (2, 1, 1)]);
    }

    /// Two words on `(0, 1)` and one on `(2, 1)`.
    fn plain_slab() -> LinkSlab {
        LinkSlab::from_runs(
            3,
            [(0usize, 1usize, &[1u64, 2][..]), (2, 1, &[3][..])].into_iter(),
        )
    }

    /// [`plain_slab`] carrying its own loads.
    fn loaded_slab() -> LinkSlab {
        let slab = plain_slab();
        let loads = slab.link_loads(&[vec![], vec![], vec![]]);
        slab.with_loads(loads)
    }

    #[test]
    fn attached_loads_are_charged_only_for_a_lone_slab() {
        // Alone: charged as attached, and detached from the delivery.
        let mut t = InMemoryTransport::new(3);
        t.send_slab(loaded_slab());
        let rd = t.finish_round();
        assert_eq!(rd.loads.iter().collect::<Vec<_>>(), [(0, 1, 2), (2, 1, 1)]);
        assert_eq!(rd.unicast, plain_slab());

        // Merged with a second part, or with a broadcast, the round is
        // recounted: the attached loads would miss the other traffic.
        let mut t = InMemoryTransport::new(3);
        t.send_slab(loaded_slab());
        t.send(1, 2, &[4]);
        let rd = t.finish_round();
        assert_eq!(
            rd.loads.iter().collect::<Vec<_>>(),
            [(0, 1, 2), (1, 2, 1), (2, 1, 1)]
        );
        t.send_slab(loaded_slab());
        t.send_slab(loaded_slab());
        let rd = t.finish_round();
        assert_eq!(rd.loads.iter().collect::<Vec<_>>(), [(0, 1, 4), (2, 1, 2)]);
        t.send_slab(loaded_slab());
        t.broadcast(0, vec![9].into());
        let rd = t.finish_round();
        assert_eq!(
            rd.loads.iter().collect::<Vec<_>>(),
            [(0, 1, 3), (0, 2, 1), (2, 1, 1)]
        );
        assert_eq!(rd.unicast, plain_slab());
    }
}
