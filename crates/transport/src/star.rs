//! The star round protocol shared by the unix-socket and TCP backends: the
//! orchestrator ships each worker its destination shard of the round's
//! [`LinkSlab`], every worker accounts and echoes its rows and commits the
//! epoch, and the echoes are decoded back into a slab. The two backends
//! differ only in the stream type and in how an I/O failure is diagnosed
//! ([`StarWorker`]).

use crate::frame::{push_frame, push_frame_bytes, push_payload_frame, read_frame, Frame};
use crate::pending::Pending;
use crate::slab::SlabAppender;
use crate::{merge_loads, RoundDelivery};
use std::io::{self, Read, Write};
use std::time::Instant;

/// The orchestrator's handle on one worker process.
pub(crate) trait StarWorker {
    /// Destination shard `[lo, hi)` the worker simulates.
    fn shard(&self) -> (usize, usize);
    /// Ships one coalesced batch and flushes; panics with the backend's
    /// diagnosis on failure.
    fn ship(&mut self, batch: &[u8]);
    /// Reads the worker's next barrier frame; panics with the backend's
    /// diagnosis on failure.
    fn next_frame(&mut self) -> Frame;
}

/// One star round barrier, orchestrator side. Returns the delivery and adds
/// the payload bytes funnelled through this process to `orchestrator_bytes`.
pub(crate) fn finish_round<W: StarWorker>(
    backend: &'static str,
    pending: &mut Pending,
    workers: &mut [W],
    epoch: u64,
    orchestrator_bytes: &mut u64,
) -> RoundDelivery {
    let n = pending.n();
    let slab = pending.take_slab();
    let bcasts = pending.take_bcasts();
    let bcast_frames: Vec<Vec<u8>> = bcasts
        .iter()
        .enumerate()
        .flat_map(|(src, slabs)| {
            slabs.iter().map(move |slab| {
                Frame::Bcast {
                    epoch,
                    src: src as u32,
                    words: slab.to_vec(),
                }
                .encode()
            })
        })
        .collect();

    // Ship phase: every worker receives its shard's links straight from the
    // slab, all broadcast slabs, and the round delimiter — coalesced into
    // **one** length-prefixed batch per (worker, round), handed to the
    // kernel as a single write instead of one syscall per frame (the byte
    // stream is identical either way; `prop_frames.rs` pins that). Workers
    // drain their input completely before echoing, so these writes cannot
    // deadlock against the echo phase.
    for wk in workers.iter_mut() {
        let (lo, hi) = wk.shard();
        let mut batch = Vec::new();
        let mut frames = 0usize;
        for (src, dst, words) in slab.runs(lo..hi) {
            push_payload_frame(&mut batch, epoch, src as u32, dst as u32, words);
            frames += 1;
        }
        for bytes in &bcast_frames {
            push_frame_bytes(&mut batch, bytes);
            frames += 1;
        }
        // Everything batched so far is round payload funnelled through the
        // orchestrator (the star topology's defining cost); the round
        // delimiter below is control traffic and uncounted.
        *orchestrator_bytes += batch.len() as u64;
        push_frame(&mut batch, &Frame::RoundEnd { epoch });
        frames += 1;
        cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
            cc_telemetry::Event::FrameBatch {
                backend,
                frames,
                bytes: batch.len(),
            }
        });
        wk.ship(&batch);
    }
    drop(slab);

    // Barrier: collect every worker's echoed rows and its round-commit
    // token for this epoch. Workers own ascending destination shards and
    // echo in (dst, src) order, so the echoes arrive in slab order and are
    // appended as they come.
    let mut unicast = SlabAppender::new(n);
    let mut all_loads = Vec::new();
    let barrier_start = Instant::now();
    for (idx, wk) in workers.iter_mut().enumerate() {
        let (lo, hi) = wk.shard();
        loop {
            match wk.next_frame() {
                Frame::Payload {
                    epoch: e,
                    src,
                    dst,
                    words,
                } => {
                    assert_eq!(e, epoch, "worker echoed a different epoch");
                    assert!(
                        (lo..hi).contains(&(dst as usize)),
                        "worker echoed a destination outside its shard"
                    );
                    unicast.append(src as usize, dst as usize, &words);
                }
                Frame::Telemetry { worker, lines } => {
                    cc_telemetry::global().merge_worker(worker, &lines);
                }
                Frame::Commit { epoch: e, loads } => {
                    assert_eq!(e, epoch, "round-commit token for a different epoch");
                    all_loads.extend(
                        loads
                            .into_iter()
                            .map(|(s, d, w)| (s as usize, d as usize, w as usize)),
                    );
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

    // Broadcast lanes are the orchestrator's own slabs: the workers counted
    // them, but immutable shared data is not echoed back to its publisher.
    RoundDelivery {
        unicast: unicast.finish(),
        broadcast: bcasts,
        loads: merge_loads(all_loads),
    }
}

/// One star round, worker side, primed with the already-read `first` frame:
/// account the owned shard's links as the epoch's frames arrive — the
/// orchestrator ships them in `(dst, src)` order, so each payload is echoed
/// as soon as it is checked and no rows are buffered — then commit the
/// epoch. Returns the next epoch.
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
    // lens[(dst - lo) * n + src]: unicast words received on each owned link.
    let mut lens = vec![0usize; count * n];
    let mut bcast_words = vec![0usize; n];
    // The echo, batched like the orchestrator's ship phase: the shard's
    // rows and the round-commit token travel back as one length-prefixed
    // batch — one write per (worker, round).
    let mut batch = Vec::new();
    let mut echoed = 0usize;
    let mut last_link = 0usize;
    let mut frame = first;
    loop {
        match frame {
            Frame::Payload {
                epoch: e,
                src,
                dst,
                words,
            } => {
                check(e == epoch, "payload from a different epoch")?;
                let (s, d) = (src as usize, dst as usize);
                check(s < n && (lo..lo + count).contains(&d), "misrouted payload")?;
                let link = (d - lo) * n + s;
                check(link >= last_link, "payloads out of (dst, src) order")?;
                last_link = link;
                lens[link] += words.len();
                push_payload_frame(&mut batch, epoch, src, dst, &words);
                echoed += 1;
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

    let mut loads: Vec<(u32, u32, u64)> = Vec::new();
    for d in 0..count {
        let dst = lo + d;
        for src in 0..n {
            // Self messages are local moves and free.
            if src != dst {
                let charged = lens[d * n + src] + bcast_words[src];
                if charged > 0 {
                    loads.push((src as u32, dst as u32, charged as u64));
                }
            }
        }
    }
    // Account the echo batch in the worker's own event stream, then ship
    // telemetry *before* the commit token: the orchestrator's barrier loop
    // merges telemetry frames and breaks on the commit, so the snapshot
    // rides the same rendezvous with no extra read.
    let commit_body = Frame::Commit { epoch, loads }.encode();
    cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
        cc_telemetry::Event::FrameBatch {
            backend,
            frames: echoed + 1,
            bytes: batch.len() + commit_body.len() + 4,
        }
    });
    crate::tcp::push_telemetry(&mut batch, worker, wire);
    push_frame_bytes(&mut batch, &commit_body);
    writer.write_all(&batch)?;
    writer.flush()?;
    Ok(epoch + 1)
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
