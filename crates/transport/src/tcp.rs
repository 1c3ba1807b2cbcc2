//! The TCP peer mesh: the worker side of the **program-resident** mode that
//! turns the star into a clique (`CC_TRANSPORT=tcp-peer`), and the only part
//! of the process fabric that is TCP-only.
//!
//! At setup each TCP worker binds a *peer listener* and the orchestrator
//! hands every worker the full routing table (the `socket` module's
//! handshake). When the engine runs [`cc_runtime::WireProgram`]s, the
//! encoded program states ship to the workers **once**
//! ([`Frame::ResidentStart`] + [`Frame::Program`]); each round the workers
//! step their shards locally and exchange the traffic directly over the
//! mesh, with the round's [`LinkSlab`] as the wire unit exactly as on the
//! star: a worker gathers its nodes' outboxes into one slab, reads its own
//! destination shard straight out of it, and ships every peer the peer's
//! shard as **one** [`Frame::Shard`] (none when the shard is empty) followed
//! by the round's broadcast slabs, encoded once, and the round delimiter —
//! one batch, one write per peer per round. The receiver checks each shard
//! against its assignment and against the sources its sender owns
//! (`MeshRound`). The worker then commits the round to the orchestrator
//! with one [`Frame::ResidentDone`] (the live count and the words charged on
//! every owned link, as the dense table [`Frame::Commit`] carries) and waits
//! for the [`Frame::Release`]. When every program has halted the workers
//! return their final states — results, rounds, words, and fingerprints
//! bit-identical to every other backend.
//!
//! The mesh is established lazily on the first resident session: worker `i`
//! dials every `j < i` from the routing table and accepts from every
//! `j > i`, identifying links with [`Frame::Hello`]. One reader thread per
//! link drains incoming frames into a shared queue, so the blocking batched
//! writes on the send side can never distributed-deadlock.

use crate::frame::{
    push_bcast_frame, push_frame, push_shard_frame, read_frame, write_frame, Frame,
};
use crate::socket::{push_telemetry, shard, Assignment, ACCEPT_DEADLINE};
use crate::star::{check, commit_table, protocol_error};
use cc_runtime::{
    step_node, BcastLanes, Control, LinkSlab, NodeInbox, Outbox, ResidentNode, ResidentRegistry,
    Word,
};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The direct worker→worker links of one worker, plus the shared queue its
/// per-link reader threads drain into. Built lazily on the first resident
/// session and reused for every later one.
#[derive(Debug)]
pub(crate) struct Mesh {
    me: usize,
    /// `writers[j]` — the link to worker `j` (`None` at `me`).
    writers: Vec<Option<BufWriter<TcpStream>>>,
    /// Frames from all peers, tagged with the sending worker. Per-link
    /// FIFO order is preserved (one reader thread per link, one channel
    /// sender each).
    rx: mpsc::Receiver<(usize, io::Result<Frame>)>,
    /// `shards[j]` — the nodes worker `j` simulates: ascending, and
    /// together exactly `0..n`.
    shards: Vec<Range<usize>>,
}

impl Mesh {
    /// Establishes the full mesh: dial every lower-indexed peer, accept
    /// every higher-indexed one, identify links by Hello exchange, spawn
    /// one reader thread per link.
    pub(crate) fn connect(
        peers: &[String],
        me: usize,
        n: usize,
        listener: &TcpListener,
    ) -> io::Result<Self> {
        let w = peers.len();
        let (tx, rx) = mpsc::channel();
        let mut writers: Vec<Option<BufWriter<TcpStream>>> = (0..w).map(|_| None).collect();

        // Dial phase: lower-indexed peers are listening already (every
        // worker bound its listener before greeting the orchestrator), and
        // the TCP backlog absorbs dials that land before the peer accepts.
        for (j, addr) in peers.iter().enumerate().take(me) {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            let mut writer = BufWriter::new(stream);
            write_frame(&mut writer, &Frame::Hello { worker: me as u32 })?;
            writer.flush()?;
            spawn_link_reader(j, reader, tx.clone());
            writers[j] = Some(writer);
        }

        // Accept phase: higher-indexed peers dial us and identify
        // themselves.
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        for _ in me + 1..w {
            let (stream, _) = poll_accept(listener, deadline)?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let writer = BufWriter::new(stream);
            let j = match read_frame(&mut reader)? {
                Frame::Hello { worker } => worker as usize,
                other => {
                    return Err(protocol_error(&format!(
                        "expected Hello on peer link, got {other:?}"
                    )))
                }
            };
            check(j < w && j > me && writers[j].is_none(), "bad peer identity")?;
            spawn_link_reader(j, reader, tx.clone());
            writers[j] = Some(writer);
        }

        let shards = (0..w)
            .map(|j| {
                let (lo, hi) = shard(n, w, j);
                lo..hi
            })
            .collect();
        Ok(Self {
            me,
            writers,
            rx,
            shards,
        })
    }
}

/// One reader thread per peer link: drains frames into the shared queue so
/// peers' blocking batch writes always complete, whatever order rounds
/// interleave in.
fn spawn_link_reader(
    peer: usize,
    mut reader: BufReader<TcpStream>,
    tx: mpsc::Sender<(usize, io::Result<Frame>)>,
) {
    std::thread::spawn(move || loop {
        match read_frame(&mut reader) {
            Ok(frame) => {
                if tx.send((peer, Ok(frame))).is_err() {
                    return; // session dropped the receiver
                }
            }
            Err(e) => {
                // EOF when the peer exits is normal teardown; report and
                // stop either way.
                let _ = tx.send((peer, Err(e)));
                return;
            }
        }
    });
}

/// Blocking-with-deadline accept on the worker's peer listener.
fn poll_accept(listener: &TcpListener, deadline: Instant) -> io::Result<(TcpStream, SocketAddr)> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok(pair) => {
                listener.set_nonblocking(false)?;
                pair.0.set_nonblocking(false)?;
                return Ok(pair);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer did not dial within the accept deadline",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One resident round's traffic from the peer mesh, as it arrives at worker
/// `me` of an `n`-clique: at most one shard per peer, every broadcast slab,
/// and the peers' round delimiters. Holds no socket, so its checks can be
/// driven frame by frame.
#[derive(Debug)]
struct MeshRound<'a> {
    epoch: u64,
    n: usize,
    /// `workers[j]` — the nodes worker `j` simulates ([`Mesh::shards`]).
    workers: &'a [Range<usize>],
    me: usize,
    /// `shards[j]` — the shard peer `j` shipped this round, if any.
    shards: Vec<Option<PeerShard>>,
    /// Words every source broadcast this round, own nodes included.
    bcast_words: Vec<usize>,
    bcast_slabs: BcastLanes,
    /// Peers that have delimited the round.
    ends: usize,
}

/// What one peer's nodes sent into this worker's destinations: the per-link
/// lengths (`lens[(dst - lo) * n + src]`, zero wherever the peer does not
/// own `src`), the words end to end, and how many of them have been moved
/// into the delivered slab so far.
#[derive(Debug)]
struct PeerShard {
    lens: Vec<u32>,
    words: Vec<Word>,
    taken: usize,
}

impl PeerShard {
    /// The words on `link`; links must be asked for in ascending order.
    fn next_link(&mut self, link: usize) -> &[Word] {
        let from = self.taken;
        self.taken += self.lens[link] as usize;
        &self.words[from..self.taken]
    }
}

impl<'a> MeshRound<'a> {
    fn new(epoch: u64, n: usize, workers: &'a [Range<usize>], me: usize) -> Self {
        Self {
            epoch,
            n,
            workers,
            me,
            shards: workers.iter().map(|_| None).collect(),
            bcast_words: vec![0; n],
            bcast_slabs: vec![Vec::new(); n],
            ends: 0,
        }
    }

    /// Records a slab one of this worker's own nodes broadcast.
    fn broadcast(&mut self, src: usize, slab: Arc<[Word]>) {
        self.bcast_words[src] += slab.len();
        self.bcast_slabs[src].push(slab);
    }

    /// Takes one frame from worker `peer`. The Release barrier guarantees
    /// no peer can be a round ahead, so every frame must belong to this
    /// epoch.
    fn accept(&mut self, peer: usize, frame: Frame) -> io::Result<()> {
        let (owned, sources) = (&self.workers[self.me], &self.workers[peer]);
        match frame {
            Frame::Shard {
                epoch,
                lo,
                lens,
                words,
            } => {
                check(epoch == self.epoch, "peer shard from a different epoch")?;
                check(
                    lo as usize == owned.start,
                    "peer shard starts at a destination this worker does not own",
                )?;
                check(
                    lens.len() == owned.len() * self.n,
                    "peer shard length table does not cover the owned links",
                )?;
                check(
                    self.shards[peer].is_none(),
                    "second shard from one peer in one round",
                )?;
                let misrouted = lens.chunks_exact(self.n).any(|into_dst| {
                    (into_dst.iter().enumerate())
                        .any(|(src, &len)| len != 0 && !sources.contains(&src))
                });
                check(
                    !misrouted,
                    "peer shard carries words from a source its sender does not own",
                )?;
                self.shards[peer] = Some(PeerShard {
                    lens,
                    words,
                    taken: 0,
                });
            }
            Frame::Bcast { epoch, src, words } => {
                check(epoch == self.epoch, "peer broadcast from a different epoch")?;
                let src = src as usize;
                check(src < self.n, "peer broadcast source out of range")?;
                self.broadcast(src, words.into());
            }
            Frame::RoundEnd { epoch } => {
                check(epoch == self.epoch, "peer round delimiter epoch mismatch")?;
                self.ends += 1;
            }
            other => return Err(protocol_error(&format!("unexpected peer frame {other:?}"))),
        }
        Ok(())
    }

    /// Closes the round: the delivered slab of the owned destinations —
    /// their rows laid out link by link, each source's words taken from
    /// `own` (this worker's slab) or from the shard of the peer owning the
    /// source; every other row is empty — the full broadcast lane set
    /// (every node hears every slab, sender included), and the round's
    /// commit table, read off the delivered slab.
    fn deliver(mut self, own: &LinkSlab) -> io::Result<(LinkSlab, BcastLanes, Vec<u32>)> {
        let n = self.n;
        let owned = self.workers[self.me].clone();
        let mut offsets = vec![0; owned.start * n];
        let mut words = Vec::new();
        for (d, dst) in owned.clone().enumerate() {
            for (j, sources) in self.workers.iter().enumerate() {
                for src in sources.clone() {
                    offsets.push(words.len());
                    words.extend_from_slice(match &mut self.shards[j] {
                        _ if j == self.me => own.link(src, dst),
                        Some(shard) => shard.next_link(d * n + src),
                        None => &[],
                    });
                }
            }
        }
        offsets.resize(n * n + 1, words.len());
        let unicast = LinkSlab::from_raw(n, offsets, words);
        let loads = commit_table(owned.clone(), &self.bcast_words, |d, src| {
            unicast.link(src, owned.start + d).len()
        })?;
        Ok((unicast, self.bcast_slabs, loads))
    }
}

/// One full program-resident session: decode the shipped shard, then per
/// round — step the owned programs exactly as the engine steps them, gather
/// their outboxes into one [`LinkSlab`] and exchange it with the peer
/// workers a shard at a time, account the owned destinations' loads with
/// the engine's formula, commit with a [`Frame::ResidentDone`] token, and
/// wait for the orchestrator's [`Frame::Release`] — until the clique-wide
/// live count hits zero, then return the final encoded states. Returns the
/// epoch after the session.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resident_session<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    mesh: &mut Mesh,
    registry: &ResidentRegistry,
    kind: &str,
    mut epoch: u64,
    &Assignment { lo, count, n, .. }: &Assignment,
    worker: u32,
    wire: Option<&cc_telemetry::WireSink>,
) -> io::Result<u64> {
    // Receive the shard: one encoded program per owned node.
    let mut programs: Vec<Option<Box<dyn ResidentNode>>> = (0..count).map(|_| None).collect();
    loop {
        match read_frame(reader)? {
            Frame::Program { node, state } => {
                let node = node as usize;
                check(
                    (lo..lo + count).contains(&node),
                    "program outside the owned shard",
                )?;
                let program = registry
                    .decode(kind, node, n, &state)
                    .map_err(|e| protocol_error(&e))?;
                programs[node - lo] = Some(program);
            }
            Frame::RoundEnd { epoch: e } => {
                check(e == epoch, "resident ship delimiter epoch mismatch")?;
                break;
            }
            other => return Err(protocol_error(&format!("unexpected frame {other:?}"))),
        }
    }
    let mut programs: Vec<Box<dyn ResidentNode>> = programs
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            p.ok_or_else(|| protocol_error(&format!("missing program for node {}", lo + i)))
        })
        .collect::<io::Result<_>>()?;

    let mut halted = vec![false; count];
    // The last delivery: the owned rows of the delivered slab, and the
    // broadcast lanes. Every owned node's inbox is a view of it.
    let (mut unicast, mut lanes) = (LinkSlab::empty(n), vec![Vec::new(); n]);
    let mut round = 0u64;
    loop {
        // Step phase: exactly the engine's loop — halted programs produce
        // empty outboxes, a program's same-round sends are delivered even
        // when it halts this round.
        let mut outboxes = Vec::with_capacity(count);
        let mut broadcasts = Vec::with_capacity(count);
        for (i, program) in programs.iter_mut().enumerate() {
            if halted[i] {
                outboxes.push(Outbox::new());
                broadcasts.push(Vec::new());
                continue;
            }
            let inbox = NodeInbox::new(&unicast, &lanes, lo + i);
            let (control, outbox, broadcast) = step_node(program.as_mut(), round, inbox);
            halted[i] = control == Control::Halt;
            outboxes.push(outbox);
            broadcasts.push(broadcast);
        }
        let live_local = halted.iter().filter(|&&h| !h).count();
        round += 1;

        // Exchange phase: the round's slab is the wire unit. Every peer gets
        // its destination shard of this worker's slab as one frame (none
        // when nothing goes there), every broadcast slab — encoded once —
        // and the round delimiter, as one batch in one write; this worker's
        // own shard never leaves the slab.
        let slab = LinkSlab::gather(n, lo, &outboxes);
        let mut arrivals = MeshRound::new(epoch, n, &mesh.shards, mesh.me);
        let mut bcast_batch = Vec::new();
        let mut bcast_frames = 0usize;
        for (i, broadcast) in broadcasts.into_iter().enumerate() {
            for words in broadcast {
                push_bcast_frame(&mut bcast_batch, epoch, (lo + i) as u32, &words);
                bcast_frames += 1;
                arrivals.broadcast(lo + i, words);
            }
        }
        let mut peer_bytes = 0u64;
        for (writer, dsts) in mesh.writers.iter_mut().zip(&mesh.shards) {
            let Some(writer) = writer else { continue };
            let mut batch = Vec::new();
            let mut frames = bcast_frames + 1;
            let (lens, words) = slab.shard(dsts.clone());
            if !words.is_empty() {
                push_shard_frame(&mut batch, epoch, dsts.start as u32, lens, words);
                frames += 1;
            }
            batch.extend_from_slice(&bcast_batch);
            push_frame(&mut batch, &Frame::RoundEnd { epoch });
            peer_bytes += batch.len() as u64;
            writer.write_all(&batch)?;
            writer.flush()?;
            cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
                cc_telemetry::Event::FrameBatch {
                    backend: "tcp",
                    frames,
                    bytes: batch.len(),
                }
            });
        }

        // Drain peers until every link has delimited the round.
        let peer_count = mesh.writers.len() - 1;
        while arrivals.ends < peer_count {
            let (peer, frame) = mesh
                .rx
                .recv()
                .map_err(|_| protocol_error("peer mesh closed mid-round"))?;
            arrivals.accept(peer, frame?)?;
        }
        let loads;
        (unicast, lanes, loads) = arrivals.deliver(&slab)?;

        // The worker's own view of the round: its shard's live count and
        // the bytes it pushed into the mesh.
        cc_telemetry::global().emit(cc_telemetry::TraceLevel::Rounds, || {
            cc_telemetry::Event::ResidentRound {
                backend: "tcp",
                epoch,
                live: live_local as u64,
                peer_bytes,
                orchestrator_bytes: 0,
            }
        });
        // Commit the round and wait for the clique-wide barrier release;
        // buffered telemetry rides just ahead of the commit token.
        let mut commit = Vec::new();
        push_telemetry(&mut commit, worker, wire);
        push_frame(
            &mut commit,
            &Frame::ResidentDone {
                epoch,
                live: live_local as u32,
                peer_bytes,
                loads,
            },
        );
        writer.write_all(&commit)?;
        writer.flush()?;
        let live_total = match read_frame(reader)? {
            Frame::Release { epoch: e, live } => {
                check(e == epoch, "release for a different epoch")?;
                live
            }
            other => return Err(protocol_error(&format!("expected Release, got {other:?}"))),
        };
        epoch += 1;
        if live_total == 0 {
            break;
        }
    }

    // Teardown: return the shard's final states, with any telemetry
    // captured since the last commit riding ahead of the delimiter.
    let mut batch = Vec::new();
    for (i, program) in programs.iter().enumerate() {
        push_frame(
            &mut batch,
            &Frame::Program {
                node: (lo + i) as u32,
                state: program.encode_state(),
            },
        );
    }
    push_telemetry(&mut batch, worker, wire);
    push_frame(&mut batch, &Frame::RoundEnd { epoch });
    writer.write_all(&batch)?;
    writer.flush()?;
    Ok(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamTransport, Transport};
    use cc_runtime::{
        BcastLanes, EchoRingProgram, Engine, ExecutorKind, Fabric, LinkLoads, LinkSlab,
        ResidentOutcome, RoundDelivery, ScriptProgram,
    };

    /// Drives engine round barriers straight through a transport: the
    /// unicast slab, then each broadcast lane, then the round rendezvous —
    /// cc-clique's `Network` without its observers.
    struct TransportFabric<'a> {
        transport: &'a mut dyn Transport,
    }

    impl<'a> TransportFabric<'a> {
        fn new(transport: &'a mut dyn Transport) -> Self {
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

    fn run_echo_ring(fabric: &mut dyn cc_runtime::Fabric, n: usize) -> (Vec<Vec<Word>>, u64, u64) {
        let engine = Engine::new(ExecutorKind::Sequential);
        let mut loads_log = Vec::new();
        let report = engine.run_wire_traced_on(
            fabric,
            (0..n).map(|_| EchoRingProgram::new(3)).collect(),
            |loads: &LinkLoads| loads_log.push(format!("{:?}", loads.iter().collect::<Vec<_>>())),
        );
        let logs = report.programs.iter().map(|p| p.log().to_vec()).collect();
        assert!(!loads_log.is_empty());
        (logs, report.rounds, report.words)
    }

    #[test]
    fn tcp_star_matches_inmemory() {
        let n = 5;
        let mut reference = crate::InMemoryTransport::new(n);
        let expected = run_echo_ring(&mut TransportFabric::new(&mut reference), n);

        let mut transport = StreamTransport::tcp(n, 2, false, None);
        let mut fabric = TransportFabric::new(&mut transport);
        assert!(!fabric.is_resident());
        let got = run_echo_ring(&mut fabric, n);
        assert_eq!(got, expected);
        assert!(
            transport.orchestrator_bytes() > 0,
            "star rounds funnel payloads through the orchestrator"
        );
    }

    #[test]
    fn tcp_resident_matches_inmemory_and_bypasses_the_orchestrator() {
        let n = 5;
        let mut reference = crate::InMemoryTransport::new(n);
        let expected = run_echo_ring(&mut TransportFabric::new(&mut reference), n);

        let mut transport = StreamTransport::tcp(n, 3, true, None);
        let mut fabric = TransportFabric::new(&mut transport);
        assert!(fabric.is_resident());
        let got = run_echo_ring(&mut fabric, n);
        assert_eq!(got, expected, "resident results/rounds/words identical");
        assert_eq!(
            transport.orchestrator_bytes(),
            0,
            "no payload crossed the orchestrator"
        );
        assert!(
            transport.peer_bytes() > 0,
            "payloads travelled worker→worker"
        );
        // Epoch parity with the star backends: one epoch per engine round.
        let star_epochs = {
            let mut star = StreamTransport::tcp(n, 2, false, None);
            let mut fabric = TransportFabric::new(&mut star);
            run_echo_ring(&mut fabric, n);
            star.epoch()
        };
        assert_eq!(transport.epoch(), star_epochs);
    }

    /// Seven nodes over three workers (shards 0..2, 2..4, 4..7). Round 0:
    /// node 0 sends twice to node 5 with another destination in between
    /// and once to itself, node 6 sends across and within its shard; round
    /// 1 is broadcasts only, two slabs from one source among them; round 2
    /// mixes both. Worker 1's nodes never send.
    fn scripted_clique() -> Vec<ScriptProgram> {
        let node = || ScriptProgram::new(3);
        vec![
            node()
                .send(0, 5, &[1, 2])
                .send(0, 1, &[10])
                .send(0, 5, &[3])
                .send(0, 0, &[7])
                .broadcast(2, &[9])
                .send(2, 3, &[30]),
            node().broadcast(1, &[8, 8]),
            node(),
            node(),
            node().broadcast(1, &[4]).broadcast(1, &[Word::MAX, 5]),
            node().send(2, 6, &[50]).send(2, 0, &[51]).send(2, 6, &[52]),
            node()
                .send(0, 0, &[60])
                .send(0, 2, &[61, 62])
                .send(0, 4, &[63]),
        ]
    }

    /// Final logs, the per-round link loads, rounds and words of the
    /// scripted run on `fabric`.
    #[allow(clippy::type_complexity)]
    fn run_script(
        fabric: &mut dyn cc_runtime::Fabric,
    ) -> (Vec<Vec<Word>>, Vec<Vec<(usize, usize, usize)>>, u64, u64) {
        let mut loads_log = Vec::new();
        let report = Engine::new(ExecutorKind::Sequential).run_wire_traced_on(
            fabric,
            scripted_clique(),
            |loads: &LinkLoads| loads_log.push(loads.iter().collect()),
        );
        let logs = report.programs.iter().map(|p| p.log().to_vec()).collect();
        (logs, loads_log, report.rounds, report.words)
    }

    #[test]
    fn resident_mesh_matches_inmemory_on_uneven_shards() {
        let mut reference = crate::InMemoryTransport::new(7);
        let expected = run_script(&mut TransportFabric::new(&mut reference));
        // The script did what it is there for: node 5 heard node 0's two
        // sends as one stream in call order, and round 1 charged nothing
        // but broadcasts (every link of sources 1 and 4, no others).
        assert!(expected.0[5].starts_with(&[0, 3, 1, 2, 3]));
        assert_eq!(expected.1.len(), 4, "three sending rounds and the halt");
        assert_eq!(expected.1[1].len(), 12);
        assert!(expected.1[1]
            .iter()
            .all(|&(src, _, words)| (src, words) == (1, 2) || (src, words) == (4, 3)));
        assert!(expected.1[3].is_empty());

        let mut transport = StreamTransport::tcp(7, 3, true, None);
        let got = run_script(&mut TransportFabric::new(&mut transport));
        assert_eq!(got, expected);
        assert_eq!(transport.orchestrator_bytes(), 0);
        assert!(transport.peer_bytes() > 0);
    }

    /// Three workers over a 7-clique.
    const WORKERS: [Range<usize>; 3] = [0..2, 2..4, 4..7];

    /// Worker 1 (destinations 2..4) at epoch 9.
    fn arrivals() -> MeshRound<'static> {
        MeshRound::new(9, 7, &WORKERS, 1)
    }

    /// A shard into destinations 2..4 carrying `len` words on each listed
    /// `(dst, src)` link.
    fn peer_shard(epoch: u64, lo: u32, links: usize, loaded: &[(usize, usize, u32)]) -> Frame {
        let mut lens = vec![0u32; links];
        for &(dst, src, len) in loaded {
            lens[(dst - 2) * 7 + src] = len;
        }
        Frame::Shard {
            epoch,
            lo,
            words: (0..lens.iter().sum::<u32>()).map(Word::from).collect(),
            lens,
        }
    }

    /// Why `round` refuses `frame` from worker 2 (sources 4..7).
    fn refusal(round: &mut MeshRound, frame: Frame) -> String {
        let err = round
            .accept(2, frame)
            .expect_err("the frame must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn peer_shards_that_break_the_round_contract_are_refused() {
        let good = || peer_shard(9, 2, 14, &[(2, 4, 1), (3, 6, 2)]);
        assert_eq!(
            refusal(&mut arrivals(), peer_shard(8, 2, 14, &[(2, 4, 1)])),
            "peer shard from a different epoch"
        );
        assert_eq!(
            refusal(&mut arrivals(), peer_shard(9, 0, 14, &[(2, 4, 1)])),
            "peer shard starts at a destination this worker does not own"
        );
        assert_eq!(
            refusal(&mut arrivals(), peer_shard(9, 2, 7, &[(2, 4, 1)])),
            "peer shard length table does not cover the owned links"
        );
        let mut round = arrivals();
        round.accept(2, good()).unwrap();
        assert_eq!(
            refusal(&mut round, good()),
            "second shard from one peer in one round"
        );
        // Source 3 belongs to this worker, source 1 to worker 0: worker 2
        // may not put words on either's links.
        for foreign in [3, 1] {
            assert_eq!(
                refusal(
                    &mut arrivals(),
                    peer_shard(9, 2, 14, &[(2, 4, 1), (3, foreign, 1)])
                ),
                "peer shard carries words from a source its sender does not own"
            );
        }
        assert_eq!(
            refusal(&mut arrivals(), Frame::RoundEnd { epoch: 10 }),
            "peer round delimiter epoch mismatch"
        );
    }

    #[test]
    fn a_mesh_round_cuts_inboxes_from_every_owners_shard() {
        // Worker 1's own nodes: 2 sends [20, 21] to 3, and 3 to itself.
        let own = [(2usize, 3usize, vec![20u64, 21]), (3, 3, vec![33])];
        let own = LinkSlab::from_runs(7, own.iter().map(|(s, d, w)| (*s, *d, w.as_slice())));
        let mut round = arrivals();
        round.broadcast(2, vec![5, 5].into());
        // Worker 2 ships words 0, 1, 2 on links (4→2), (6→3), (6→3) and a
        // broadcast; worker 0 ships nothing but its delimiter.
        round
            .accept(2, peer_shard(9, 2, 14, &[(2, 4, 1), (3, 6, 2)]))
            .unwrap();
        let bcast = Frame::Bcast {
            epoch: 9,
            src: 6,
            words: vec![7],
        };
        round.accept(2, bcast).unwrap();
        round.accept(2, Frame::RoundEnd { epoch: 9 }).unwrap();
        round.accept(0, Frame::RoundEnd { epoch: 9 }).unwrap();
        assert_eq!(round.ends, 2);

        let (unicast, lanes, loads) = round.deliver(&own).unwrap();
        let inboxes = [2, 3].map(|dst| NodeInbox::new(&unicast, &lanes, dst));
        assert_eq!(inboxes[0].received(4), &[0]);
        assert_eq!(inboxes[1].received(2), &[20, 21]);
        assert_eq!(inboxes[1].received(3), &[33]);
        assert_eq!(inboxes[1].received(6), &[1, 2]);
        // Each owned row, plus the 3 broadcast words every node hears; the
        // rows this worker does not own stay empty.
        let bcast: usize = lanes.iter().flatten().map(|slab| slab.len()).sum();
        assert_eq!(unicast.row(2).len() + bcast, 1 + 3);
        assert_eq!(unicast.row(3).len() + bcast, 5 + 3);
        assert_eq!(unicast.total_words(), 6);
        // Links into 2, then into 3: unicast plus the source's broadcast
        // words, nothing on the self links (2→2 and 3→3).
        assert_eq!(loads, vec![0, 0, 0, 0, 1, 0, 1, 0, 0, 4, 0, 0, 0, 3]);
    }

    #[test]
    fn killed_worker_fails_the_round_barrier_loudly() {
        let n = 6;
        for mut transport in [
            StreamTransport::unix(n, 2),
            StreamTransport::tcp(n, 2, false, None),
        ] {
            // A warm round proves the fabric works before the sabotage.
            transport.send(0, 1, &[1, 2]);
            let _ = transport.finish_round();
            transport.kill_worker(0);

            transport.send(0, 1, &[3]);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = transport.finish_round();
            }));
            // The regression this pins: the barrier must fail with a
            // diagnosis, not hang waiting for a commit token that can never
            // arrive (the test harness itself would time out) and not
            // report an opaque broken-pipe error.
            let payload = result.expect_err("a dead worker must fail the barrier");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic payload is a message");
            let named = format!("{} worker (shard 0..3)", transport.name());
            assert!(
                msg.contains(&named) && msg.contains("mid-barrier"),
                "barrier failure must diagnose the dead worker: {msg}"
            );
        }
    }

    #[test]
    fn tcp_resident_single_worker_degenerates_gracefully() {
        // w clamps to 1 ⇒ no peer links at all; everything is local and
        // the orchestrator still only brokers the barrier.
        let n = 3;
        let mut transport = StreamTransport::tcp(n, 1, true, None);
        let engine = Engine::new(ExecutorKind::Sequential);
        let mut fabric = TransportFabric::new(&mut transport);
        let report = engine.run_wire_traced_on(
            &mut fabric,
            (0..n).map(|_| EchoRingProgram::new(2)).collect(),
            |_: &LinkLoads| {},
        );
        let mut reference = crate::InMemoryTransport::new(n);
        let expected = engine.run_wire_traced_on(
            &mut TransportFabric::new(&mut reference),
            (0..n).map(|_| EchoRingProgram::new(2)).collect(),
            |_: &LinkLoads| {},
        );
        for (a, b) in report.programs.iter().zip(&expected.programs) {
            assert_eq!(a.log(), b.log());
        }
        assert_eq!(report.rounds, expected.rounds);
        assert_eq!(transport.orchestrator_bytes(), 0);
    }
}
