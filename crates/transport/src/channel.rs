//! The cross-thread backend: one OS thread and one MPSC inbox queue per
//! simulated node, rounds delimited by an epoch rendezvous.

use crate::frame::{encode_payload, Frame};
use crate::pending::Pending;
use crate::slab::SlabAppender;
use crate::{merge_loads, LinkSlab, RoundDelivery, Transport};
use cc_runtime::Word;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One node's assembled row: `(src, words)` runs in `src` order.
type NodeRow = Vec<(usize, Vec<Word>)>;

/// One node's barrier contribution: its id, the epoch it is committing,
/// its assembled row, and its per-link accounting (entries
/// `(src, self, words)` in `src` order).
type NodeCommit = (usize, u64, NodeRow, Vec<(usize, usize, usize)>);

/// Cross-thread message passing: each simulated node is an OS thread owning
/// an MPSC inbox queue of encoded [`Frame`]s (the same wire format the
/// socket backend puts on the wire, so the codec is exercised on this lane
/// too). Per round, the parent feeds every node its incoming links —
/// encoded straight from the round's [`LinkSlab`], one destination row
/// after another — and a `RoundEnd` delimiter; each node assembles its row
/// and accounting off-thread and answers through a shared commit channel,
/// and the committed rows are laid end to end into the delivered slab. The round
/// barrier is the **epoch rendezvous**: `finish_round` returns only after
/// all `n` nodes have committed the current epoch, and every frame and
/// commit carries the epoch so a desynchronised round fails loudly instead
/// of silently corrupting a product.
#[derive(Debug)]
pub struct ChannelTransport {
    pending: Pending,
    epoch: u64,
    /// Per-node inbox queues (frame bytes).
    inboxes: Vec<Sender<Vec<u8>>>,
    /// Shared commit channel the rendezvous collects from.
    commits: Receiver<NodeCommit>,
    workers: Vec<JoinHandle<()>>,
    /// Encoded payload/broadcast bytes the parent posted onto node queues —
    /// this backend is star-shaped too, just over thread queues.
    orchestrator_bytes: u64,
}

impl ChannelTransport {
    /// Creates the fabric, spawning one node thread per simulated node.
    /// Threads park on their inbox queue between rounds and are joined on
    /// drop.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let (commit_tx, commits) = mpsc::channel::<NodeCommit>();
        let mut inboxes = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for node in 0..n {
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            let commit_tx = commit_tx.clone();
            inboxes.push(tx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cc-node-{node}"))
                    .spawn(move || node_loop(node, n, &rx, &commit_tx))
                    .expect("spawn node thread"),
            );
        }
        Self {
            pending: Pending::new(n),
            epoch: 0,
            inboxes,
            commits,
            workers,
            orchestrator_bytes: 0,
        }
    }

    fn post(&self, node: usize, bytes: Vec<u8>) {
        self.inboxes[node]
            .send(bytes)
            .expect("node thread hung up mid-simulation");
    }

    /// Receives one commit, failing loudly if any node thread has died
    /// instead of committing. A plain blocking `recv` would deadlock here:
    /// with `n ≥ 2` the surviving threads keep the shared commit channel
    /// open, so a single panicked node would leave the rendezvous waiting
    /// forever rather than surfacing the panic.
    fn recv_commit(&self) -> NodeCommit {
        loop {
            match self
                .commits
                .recv_timeout(std::time::Duration::from_millis(50))
            {
                Ok(commit) => return commit,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for (node, h) in self.workers.iter().enumerate() {
                        assert!(
                            !h.is_finished(),
                            "node thread {node} died before committing the round"
                        );
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("all node threads died before committing the round")
                }
            }
        }
    }
}

impl Transport for ChannelTransport {
    fn name(&self) -> &'static str {
        "channel"
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
        let n = self.pending.n();
        let epoch = self.epoch;
        // Feed every node its incoming links (src order), then the
        // broadcast slabs, then the round delimiter.
        let slab = self.pending.take_slab();
        for (src, dst, words) in slab.runs(0..n) {
            let bytes = encode_payload(epoch, src as u32, dst as u32, words);
            self.orchestrator_bytes += bytes.len() as u64;
            self.post(dst, bytes);
        }
        drop(slab);
        let bcasts = self.pending.take_bcasts();
        for (src, slabs) in bcasts.iter().enumerate() {
            for slab in slabs {
                let bytes = Frame::Bcast {
                    epoch,
                    src: src as u32,
                    words: slab.to_vec(),
                }
                .encode();
                for dst in 0..n {
                    self.orchestrator_bytes += bytes.len() as u64;
                    self.post(dst, bytes.clone());
                }
            }
        }
        let end = Frame::RoundEnd { epoch }.encode();
        for dst in 0..n {
            self.post(dst, end.clone());
        }

        // Epoch rendezvous: every node must commit this round before it is
        // delivered and charged.
        let mut rows: Vec<Option<NodeRow>> = (0..n).map(|_| None).collect();
        let mut all_loads = Vec::new();
        for _ in 0..n {
            let (node, e, row, loads) = self.recv_commit();
            assert_eq!(e, epoch, "node {node} committed a different epoch");
            assert!(rows[node].is_none(), "node {node} committed twice");
            rows[node] = Some(row);
            all_loads.extend(loads);
        }
        let mut unicast = SlabAppender::new(n);
        for (dst, row) in rows.into_iter().enumerate() {
            for (src, words) in row.expect("every node committed") {
                unicast.append(src, dst, &words);
            }
        }
        self.epoch += 1;
        // Broadcast lanes are the parent's own slabs: the nodes counted
        // them, but immutable shared data is not echoed back.
        RoundDelivery {
            unicast: unicast.finish(),
            broadcast: bcasts,
            loads: merge_loads(all_loads),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn orchestrator_bytes(&self) -> u64 {
        self.orchestrator_bytes
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        let bytes = Frame::Shutdown.encode();
        for tx in &self.inboxes {
            // A node that already exited (e.g. after a panic) has dropped
            // its receiver; that is fine during teardown.
            let _ = tx.send(bytes.clone());
        }
        for h in self.workers.drain(..) {
            if h.join().is_err() && !std::thread::panicking() {
                panic!("channel transport node thread panicked");
            }
        }
    }
}

/// One node's receive loop: buffer the epoch's frames, and on the round
/// delimiter commit the assembled row and its accounting.
fn node_loop(me: usize, n: usize, rx: &Receiver<Vec<u8>>, commit: &Sender<NodeCommit>) {
    let mut epoch = 0u64;
    'rounds: loop {
        let mut row = NodeRow::new();
        // charged[src]: words `src` put on its link to this node, unicast
        // and broadcast alike.
        let mut charged = vec![0usize; n];
        loop {
            let Ok(bytes) = rx.recv() else {
                return; // parent dropped the transport
            };
            match Frame::decode(&bytes).expect("malformed frame on node inbox queue") {
                Frame::Payload {
                    epoch: e,
                    src,
                    dst,
                    words,
                } => {
                    assert_eq!(e, epoch, "node {me}: payload from a different epoch");
                    assert_eq!(dst as usize, me, "node {me}: misrouted payload");
                    let src = src as usize;
                    assert!(
                        src < n && row.last().is_none_or(|&(last, _)| last < src),
                        "node {me}: payloads out of source order"
                    );
                    charged[src] += words.len();
                    row.push((src, words));
                }
                Frame::Bcast {
                    epoch: e,
                    src,
                    words,
                } => {
                    assert_eq!(e, epoch, "node {me}: broadcast from a different epoch");
                    charged[src as usize] += words.len();
                }
                Frame::RoundEnd { epoch: e } => {
                    assert_eq!(e, epoch, "node {me}: round delimiter epoch mismatch");
                    break;
                }
                Frame::Shutdown => return,
                other => panic!("node {me}: unexpected frame {other:?}"),
            }
        }
        // Self messages are local moves and free.
        let loads = (0..n)
            .filter(|&src| src != me && charged[src] > 0)
            .map(|src| (src, me, charged[src]))
            .collect();
        if commit.send((me, epoch, row, loads)).is_err() {
            break 'rounds; // parent gone
        }
        epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_unicast_and_broadcast_with_inmemory_accounting() {
        let mut t = ChannelTransport::new(4);
        t.send(0, 1, &[1, 2, 3]);
        t.send(0, 1, &[4]); // concatenates in send order
        t.send(2, 2, &[9]); // self: delivered, free
        t.broadcast(3, vec![7, 7].into());
        let rd = t.finish_round();
        assert_eq!(rd.unicast.link(0, 1), &[1, 2, 3, 4]);
        assert_eq!(rd.unicast.link(2, 2), &[9]);
        assert_eq!(rd.broadcast[3].len(), 1);
        assert_eq!(&*rd.broadcast[3][0], &[7, 7]);
        // Loads: (0,1,4) plus (3,d,2) for d != 3, canonical order.
        let got: Vec<_> = rd.loads.iter().collect();
        assert_eq!(got, vec![(0, 1, 4), (3, 0, 2), (3, 1, 2), (3, 2, 2)]);
        assert_eq!(rd.loads.rounds(), 4);
        assert_eq!(t.epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "died before committing")]
    fn a_dead_node_thread_fails_the_rendezvous_loudly() {
        // The deadlock regression: with n >= 2, one panicked node thread
        // leaves the shared commit channel open (the survivors hold sender
        // clones), so a plain blocking recv would hang the barrier forever.
        // The rendezvous must notice the death and panic instead.
        let mut t = ChannelTransport::new(3);
        t.inboxes[1]
            .send(vec![255, 0, 0]) // garbage frame: node 1 panics on decode
            .unwrap();
        let _ = t.finish_round();
    }

    #[test]
    fn empty_rounds_rendezvous_cleanly() {
        let mut t = ChannelTransport::new(3);
        for expected in 1..=5u64 {
            let rd = t.finish_round();
            assert_eq!(rd.loads.words(), 0);
            assert_eq!(rd.unicast, LinkSlab::empty(3));
            assert_eq!(t.epoch(), expected);
        }
    }
}
