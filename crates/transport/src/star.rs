//! The star round protocol of the process fabric (unix sockets and TCP alike).
//!
//! A round's unicast traffic is one destination-major [`crate::LinkSlab`],
//! and each worker owns a contiguous range of destinations, so a worker's
//! share of the round is one contiguous range of the slab. That range is the
//! wire unit: the orchestrator ships every worker **one** [`Frame::Shard`]
//! (per-link length table, then the words, encoded straight from the slab's
//! slices), all broadcast slabs, and the round delimiter; the worker checks
//! the shard against its assignment, accounts from the length table, echoes
//! the shard as one frame and commits the epoch with a dense table of the
//! words it charged on each owned link ([`Frame::Commit`]); the orchestrator
//! appends each echoed shard to the delivered slab in one step, and the
//! workers' tables laid end to end are the round's [`LinkLoads`] table. A
//! shard nothing was sent to is not shipped and not echoed.

use crate::frame::{
    push_bcast_frame, push_frame, push_frame_bytes, push_shard_frame, read_frame, Frame,
};
use crate::pending::Pending;
use crate::slab::SlabAppender;
use crate::socket::{push_telemetry, Worker};
use crate::RoundDelivery;
use cc_runtime::{LinkLoads, Word};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::time::Instant;

/// One star round barrier, orchestrator side. Returns the delivery and adds
/// the payload bytes funnelled through this process to `orchestrator_bytes`.
pub(crate) fn finish_round(
    backend: &'static str,
    pending: &mut Pending,
    workers: &mut [Worker],
    epoch: u64,
    orchestrator_bytes: &mut u64,
) -> RoundDelivery {
    let n = pending.n();
    let slab = pending.take_slab();
    let bcasts = pending.take_bcasts();
    // Every worker hears every broadcast slab: encode them once.
    let mut bcast_batch = Vec::new();
    let mut bcast_frames = 0usize;
    for (src, slabs) in bcasts.iter().enumerate() {
        for words in slabs {
            push_bcast_frame(&mut bcast_batch, epoch, src as u32, words);
            bcast_frames += 1;
        }
    }

    // Ship phase: every worker receives its shard of the slab as one frame,
    // all broadcast slabs, and the round delimiter — coalesced into **one**
    // length-prefixed batch per (worker, round), handed to the kernel as a
    // single write. Workers drain their input completely before echoing, so
    // these writes cannot deadlock against the echo phase.
    for wk in workers.iter_mut() {
        let (lo, hi) = (wk.lo, wk.hi);
        let mut batch = Vec::new();
        let mut frames = bcast_frames + 1;
        let (lens, words) = slab.shard(lo..hi);
        if !words.is_empty() {
            push_shard_frame(&mut batch, epoch, lo as u32, lens, words);
            frames += 1;
        }
        batch.extend_from_slice(&bcast_batch);
        // Everything batched so far is round payload funnelled through the
        // orchestrator (the star topology's defining cost); the round
        // delimiter below is control traffic and uncounted.
        *orchestrator_bytes += batch.len() as u64;
        push_frame(&mut batch, &Frame::RoundEnd { epoch });
        cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
            cc_telemetry::Event::FrameBatch {
                backend,
                frames,
                bytes: batch.len(),
            }
        });
        wk.ship(&batch, "a round batch acknowledgement");
    }
    drop(slab);

    // Barrier: collect every worker's echoed shard and its round-commit
    // token for this epoch. Workers own ascending destination shards, so
    // the echoes arrive in slab order and the commit tables, laid end to
    // end, are the clique's `charged[dst * n + src]`.
    let mut unicast = SlabAppender::new(n);
    let mut charged: Vec<u32> = Vec::with_capacity(n * n);
    let barrier_start = Instant::now();
    for (idx, wk) in workers.iter_mut().enumerate() {
        let (lo, hi) = (wk.lo, wk.hi);
        let links = (hi - lo) * n;
        loop {
            match wk.next_frame("the star round's echoes and commit token") {
                Frame::Shard {
                    epoch: e,
                    lo: l,
                    lens,
                    words,
                } => {
                    assert_eq!(e, epoch, "worker echoed a different epoch");
                    assert!(
                        l as usize == lo && lens.len() == links,
                        "worker echoed a shard other than its own"
                    );
                    unicast.append_shard(lo, &lens, words);
                }
                Frame::Commit { epoch: e, loads } => {
                    assert_eq!(e, epoch, "round-commit token for a different epoch");
                    assert_eq!(
                        loads.len(),
                        links,
                        "commit table does not cover the worker's shard"
                    );
                    charged.extend_from_slice(&loads);
                    cc_telemetry::global().emit(cc_telemetry::TraceLevel::Rounds, || {
                        cc_telemetry::Event::BarrierLane {
                            backend,
                            epoch,
                            worker: idx as u32,
                            wall_ns: barrier_start.elapsed().as_nanos() as u64,
                        }
                    });
                    break;
                }
                other => panic!("unexpected frame from worker: {other:?}"),
            }
        }
    }
    let loads = LinkLoads::from_counts(n, charged);

    // Broadcast lanes are the orchestrator's own slabs: the workers counted
    // them, but immutable shared data is not echoed back to its publisher.
    RoundDelivery {
        unicast: unicast.finish(),
        broadcast: bcasts,
        loads,
    }
}

/// One star round, worker side, primed with the already-read `first` frame:
/// take the owned shard (at most one per round, checked against the
/// assignment), count the broadcast words, and at the round delimiter
/// account every owned link from the shard's length table, echo the shard
/// as one frame and commit the epoch. Returns the next epoch.
///
/// `lo` is the first owned destination, `count` the shard width, `n` the
/// clique size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve_round<R: Read, W: Write>(
    backend: &'static str,
    reader: &mut R,
    writer: &mut W,
    first: Frame,
    epoch: u64,
    (lo, count, n): (usize, usize, usize),
    worker: u32,
    wire: Option<&cc_telemetry::WireSink>,
) -> io::Result<u64> {
    // The owned shard: lens[(dst - lo) * n + src] words on each owned link,
    // and the links' words end to end.
    let mut shard: Option<(Vec<u32>, Vec<Word>)> = None;
    let mut bcast_words = vec![0usize; n];
    let mut frame = first;
    loop {
        match frame {
            Frame::Shard {
                epoch: e,
                lo: l,
                lens,
                words,
            } => {
                check(e == epoch, "shard from a different epoch")?;
                check(
                    l as usize == lo,
                    "shard starts at a destination this worker does not own",
                )?;
                check(
                    lens.len() == count * n,
                    "shard length table does not cover the owned links",
                )?;
                check(shard.is_none(), "second shard in one round")?;
                shard = Some((lens, words));
            }
            Frame::Bcast {
                epoch: e,
                src,
                words,
            } => {
                check(e == epoch, "broadcast from a different epoch")?;
                check((src as usize) < n, "broadcast source out of range")?;
                bcast_words[src as usize] += words.len();
            }
            Frame::RoundEnd { epoch: e } => {
                check(e == epoch, "round delimiter epoch mismatch")?;
                break;
            }
            other => return Err(protocol_error(&format!("unexpected frame {other:?}"))),
        }
        frame = read_frame(reader)?;
    }

    let lens = shard.as_ref().map(|(lens, _)| lens.as_slice());
    let loads = commit_table(lo..lo + count, &bcast_words, |d, src| {
        lens.map_or(0, |lens| lens[d * n + src] as usize)
    })?;

    // The echo, batched like the orchestrator's ship phase: the shard and
    // the round-commit token travel back as one length-prefixed batch — one
    // write per (worker, round).
    let mut batch = Vec::new();
    if let Some((lens, words)) = &shard {
        push_shard_frame(&mut batch, epoch, lo as u32, lens.iter().copied(), words);
    }
    // Account the echo batch in the worker's own event stream, then ship
    // telemetry *before* the commit token: the orchestrator's barrier loop
    // merges telemetry frames and breaks on the commit, so the snapshot
    // rides the same rendezvous with no extra read.
    let commit_body = Frame::Commit { epoch, loads }.encode();
    cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
        cc_telemetry::Event::FrameBatch {
            backend,
            frames: usize::from(shard.is_some()) + 1,
            bytes: batch.len() + commit_body.len() + 4,
        }
    });
    push_telemetry(&mut batch, worker, wire);
    push_frame_bytes(&mut batch, &commit_body);
    writer.write_all(&batch)?;
    writer.flush()?;
    Ok(epoch + 1)
}

/// The dense table a worker commits a round with: the words charged on every
/// link into the destinations `owned`, in link order. A link is charged its
/// unicast words (`unicast(dst - owned.start, src)`) plus everything its
/// source broadcast (`bcast_words[src]`, one entry per node of the clique);
/// self messages are local moves and free.
pub(crate) fn commit_table(
    owned: Range<usize>,
    bcast_words: &[usize],
    unicast: impl Fn(usize, usize) -> usize,
) -> io::Result<Vec<u32>> {
    let mut loads = Vec::with_capacity(owned.len() * bcast_words.len());
    for (d, dst) in owned.enumerate() {
        for (src, &bcast) in bcast_words.iter().enumerate() {
            let charged = if src == dst {
                0
            } else {
                unicast(d, src) + bcast
            };
            loads.push(u32::try_from(charged).map_err(|_| {
                protocol_error(&format!(
                    "link ({src}, {dst}) carries {charged} words, more than the commit table holds"
                ))
            })?);
        }
    }
    Ok(loads)
}

pub(crate) fn check(ok: bool, msg: &str) -> io::Result<()> {
    if ok {
        Ok(())
    } else {
        Err(protocol_error(msg))
    }
}

pub(crate) fn protocol_error(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame_batch;
    use std::io::Cursor;

    /// A worker owning destinations 2..4 of a 4-clique, at epoch 5.
    const SHARD: (usize, usize, usize) = (2, 2, 4);
    const EPOCH: u64 = 5;

    /// Serves one round from in-memory streams: `frames[0]` is the primed
    /// frame, the rest are read from the stream. Returns the next epoch and
    /// everything the worker wrote, decoded.
    fn serve(frames: &[Frame]) -> io::Result<(u64, Vec<Frame>)> {
        let mut reader = Cursor::new(encode_frame_batch(&frames[1..]));
        let mut written = Vec::new();
        let next = serve_round(
            "socket",
            &mut reader,
            &mut written,
            frames[0].clone(),
            EPOCH,
            SHARD,
            1,
            None,
        )?;
        assert_eq!(reader.position(), reader.get_ref().len() as u64);
        let mut out = Cursor::new(written);
        let mut echoed = Vec::new();
        while out.position() < out.get_ref().len() as u64 {
            echoed.push(read_frame(&mut out)?);
        }
        Ok((next, echoed))
    }

    fn shard(epoch: u64, lo: u32, lens: Vec<u32>) -> Frame {
        let words = (0..lens.iter().sum::<u32>()).map(|w| Word::MAX - Word::from(w));
        Frame::Shard {
            epoch,
            lo,
            words: words.collect(),
            lens,
        }
    }

    fn message(frames: &[Frame]) -> String {
        let err = serve(frames).expect_err("the round must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn a_round_is_echoed_whole_and_committed_with_a_dense_table() {
        // Links into dst 2 from 0..4, then into dst 3: a self-link on each
        // destination (delivered, never charged) and empty links between.
        let sent = shard(EPOCH, 2, vec![1, 0, 3, 0, 0, 2, 0, 4]);
        let bcast = Frame::Bcast {
            epoch: EPOCH,
            src: 3,
            words: vec![9, 9],
        };
        let end = Frame::RoundEnd { epoch: EPOCH };
        let (next, echoed) = serve(&[sent.clone(), bcast.clone(), end.clone()]).unwrap();
        assert_eq!(next, EPOCH + 1);
        let commit = Frame::Commit {
            epoch: EPOCH,
            loads: vec![1, 0, 0, 2, 0, 2, 0, 0],
        };
        assert_eq!(echoed, vec![sent, commit]);

        // A broadcast-only round: no shard arrives, none is echoed, and the
        // table still charges the broadcast on every owned non-self link.
        let (_, echoed) = serve(&[bcast, end.clone()]).unwrap();
        let commit = Frame::Commit {
            epoch: EPOCH,
            loads: vec![0, 0, 0, 2, 0, 0, 0, 0],
        };
        assert_eq!(echoed, vec![commit]);

        // An empty round is its delimiter and an all-zero table.
        let (_, echoed) = serve(&[end]).unwrap();
        let commit = Frame::Commit {
            epoch: EPOCH,
            loads: vec![0; 8],
        };
        assert_eq!(echoed, vec![commit]);
    }

    #[test]
    fn shards_that_do_not_match_the_assignment_are_refused() {
        let end = Frame::RoundEnd { epoch: EPOCH };
        let good = shard(EPOCH, 2, vec![1; 8]);
        assert_eq!(
            message(&[shard(EPOCH, 0, vec![1; 8]), end.clone()]),
            "shard starts at a destination this worker does not own"
        );
        assert_eq!(
            message(&[shard(EPOCH, 2, vec![1; 12]), end.clone()]),
            "shard length table does not cover the owned links"
        );
        assert_eq!(
            message(&[shard(EPOCH, 2, vec![1; 4]), end.clone()]),
            "shard length table does not cover the owned links"
        );
        assert_eq!(
            message(&[good.clone(), good, end.clone()]),
            "second shard in one round"
        );
        assert_eq!(
            message(&[shard(EPOCH + 1, 2, vec![1; 8]), end]),
            "shard from a different epoch"
        );
    }
}
