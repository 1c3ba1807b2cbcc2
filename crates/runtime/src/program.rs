//! Per-node state machines and their round-scoped I/O surface.

use crate::{LinkSlab, Outbox, Word};
use std::sync::Arc;

/// What a node wants after finishing a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Step this node again next round.
    Continue,
    /// This node is done; it is not stepped again (messages already sent
    /// this round are still delivered and charged).
    Halt,
}

/// One simulated node's state machine.
///
/// The engine calls [`NodeProgram::round`] once per synchronous round with a
/// [`RoundCtx`] exposing the node's identity, the messages delivered at the
/// end of the previous round, and this round's outbox. Programs must derive
/// everything they do from that context and their own state — they cannot
/// observe other nodes — which is exactly the locality discipline of the
/// congested clique and what makes parallel execution deterministic.
pub trait NodeProgram: Send {
    /// Executes one round. Return [`Control::Halt`] when done.
    fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control;
}

/// What one node received at a round barrier: a view of its row of the
/// delivered [`LinkSlab`], plus the round's broadcast lanes, which every
/// recipient shares.
///
/// Unicast payloads from each source are concatenated in send order, and
/// [`NodeInbox::received`] is a slice of the slab. Broadcast payloads are
/// the senders' own `Arc<[Word]>` slabs (zero-copy delivery).
#[derive(Debug, Clone, Copy)]
pub struct NodeInbox<'a> {
    unicast: &'a LinkSlab,
    pub(crate) broadcast: &'a [Vec<Arc<[Word]>>],
    dst: usize,
}

impl<'a> NodeInbox<'a> {
    /// Node `dst`'s view of a round's delivered `unicast` slab and
    /// `broadcast` lanes (one per source).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or the lanes do not cover the slab's
    /// nodes.
    #[must_use]
    pub fn new(unicast: &'a LinkSlab, broadcast: &'a [Vec<Arc<[Word]>>], dst: usize) -> Self {
        let n = unicast.n();
        assert!(dst < n, "inbox of node {dst} out of range (n={n})");
        assert_eq!(broadcast.len(), n, "one broadcast lane per node");
        Self {
            unicast,
            broadcast,
            dst,
        }
    }

    /// Unicast words received from `src` this round, in send order.
    #[must_use]
    pub fn received(&self, src: usize) -> &'a [Word] {
        self.unicast.link(src, self.dst)
    }

    /// Broadcast slabs received from `src` this round, in send order.
    pub fn broadcasts_from(&self, src: usize) -> impl Iterator<Item = &'a [Word]> {
        self.broadcast[src].iter().map(|a| &a[..])
    }
}

/// A node's view of one synchronous round: its inbox, and the [`Outbox`]
/// and broadcast lane its sends this round go to.
#[derive(Debug)]
pub struct RoundCtx<'a> {
    pub(crate) round: u64,
    pub(crate) inbox: NodeInbox<'a>,
    pub(crate) outbox: Outbox,
    pub(crate) broadcast: Vec<Arc<[Word]>>,
}

impl RoundCtx<'_> {
    /// This node's id in `0..n`.
    #[must_use]
    pub fn node(&self) -> usize {
        self.inbox.dst
    }

    /// Clique size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.inbox.unicast.n()
    }

    /// Zero-based index of the current round.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Unicast words received from `src` at the previous barrier.
    #[must_use]
    pub fn received(&self, src: usize) -> &[Word] {
        self.inbox.received(src)
    }

    /// Broadcast slabs received from `src` at the previous barrier.
    pub fn broadcasts_from(&self, src: usize) -> impl Iterator<Item = &[Word]> {
        self.inbox.broadcasts_from(src)
    }

    /// Sends `words` to `dst` over the `(self, dst)` link. Self-addressed
    /// messages are local memory moves and cost no rounds, matching the
    /// wire simulator.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range: the [`Outbox`] does not check it,
    /// so this keeps a bad destination failing here, by name, in-process and
    /// in a resident worker alike.
    pub fn send(&mut self, dst: usize, words: impl AsRef<[Word]>) {
        let n = self.n();
        assert!(dst < n, "destination {dst} out of range (n={n})");
        self.outbox.message(dst).extend_from_slice(words.as_ref());
    }

    /// Broadcasts `words` to every node (including the sender's own next
    /// inbox). The payload is stored once as a shared `Arc<[Word]>` slab;
    /// recipients see the same allocation. Charged on the `n - 1` outgoing
    /// links like any broadcast.
    pub fn broadcast(&mut self, words: impl Into<Arc<[Word]>>) {
        let slab: Arc<[Word]> = words.into();
        if !slab.is_empty() {
            self.broadcast.push(slab);
        }
    }
}
