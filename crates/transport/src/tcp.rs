//! The TCP backend: the socket orchestrator/worker protocol made
//! host-portable, plus the **program-resident** mode that turns the star
//! into a clique.
//!
//! ## Star mode (`CC_TRANSPORT=tcp`)
//!
//! Identical round structure to [`crate::SocketTransport`], with TCP
//! streams instead of unix sockets (the round itself is the shared
//! `star` module): the orchestrator ships every round's slab to the workers
//! one [`Frame::Shard`] each, appends the echoed shards back into a slab,
//! and reads the round's loads off the dense tables in the per-epoch
//! round-commit tokens. Works across hosts, but every payload still
//! transits the orchestrator.
//!
//! ## Program-resident mode (`CC_TRANSPORT=tcp-peer`)
//!
//! The multi-layer refactor this backend exists for. At setup, each worker
//! binds a *peer listener* and reports its address ([`Frame::PeerAddr`]);
//! the orchestrator answers with the shard assignment ([`Frame::Assign`])
//! and the full routing table ([`Frame::Peers`]). When the engine runs
//! [`cc_runtime::WireProgram`]s, the encoded program states ship to the
//! workers **once** ([`Frame::ResidentStart`] + [`Frame::Program`]); each
//! round the workers step their shards locally, exchange payloads directly
//! over the peer mesh, and the orchestrator's role shrinks to brokering
//! the barrier: collect one [`Frame::ResidentDone`] commit token per
//! worker (carrying the shard's link accounting and live count), merge the
//! loads, release the round ([`Frame::Release`]). When every program has
//! halted the workers return their final states and the engine decodes
//! them — results, rounds, words, and fingerprints bit-identical to every
//! other backend.
//!
//! The peer mesh is established lazily on the first resident session:
//! worker `i` dials every `j < i` from the routing table and accepts from
//! every `j > i`, identifying links with [`Frame::Hello`]. One reader
//! thread per link drains incoming frames into a shared queue, so the
//! blocking batched writes on the send side can never distributed-deadlock.

use crate::frame::{push_frame, push_frame_bytes, read_frame, write_frame, Frame};
use crate::pending::Pending;
use crate::socket::{find_worker_binary, shard};
use crate::star::{self, check, protocol_error, StarWorker};
use crate::{merge_loads, LinkSlab, RoundDelivery, Transport};
use cc_runtime::{
    step_node, Control, LinkLoads, NodeInbox, ResidentNode, ResidentOutcome, ResidentRegistry, Word,
};
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Default worker-process count when [`crate::TransportKind::Tcp`] has
/// `workers: 0` (clamped to `n`).
pub const DEFAULT_TCP_WORKERS: usize = 2;

/// How long the orchestrator waits for all workers to connect (and workers
/// wait for their peers) before declaring the setup failed.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// The TCP orchestrator: spawns (or, with `CC_TCP_EXTERN=1`, waits for)
/// `cc-clique-host` / `cc-clique-node` workers, runs the socket backend's
/// star protocol for classical rounds, and hosts program-resident sessions
/// where per-round traffic bypasses it entirely (see the module docs).
#[derive(Debug)]
pub struct TcpTransport {
    pending: Pending,
    epoch: u64,
    resident: bool,
    workers: Vec<Worker>,
    /// Encoded payload/broadcast bytes shipped through this orchestrator.
    /// Star rounds add every round's traffic; resident rounds add nothing —
    /// that asymmetry is the refactor's measurable win.
    orchestrator_bytes: u64,
    /// Encoded payload bytes exchanged worker→worker across all resident
    /// sessions (reported by the workers' commit tokens).
    peer_bytes: u64,
}

#[derive(Debug)]
struct Worker {
    /// `None` for externally-launched workers (`CC_TCP_EXTERN=1`).
    child: Option<Child>,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Destination shard `[lo, hi)` this worker simulates.
    lo: usize,
    hi: usize,
}

impl Worker {
    /// Reads the next frame during a round barrier, turning an I/O failure
    /// into a diagnosis instead of an opaque error: a worker whose stream
    /// dies mid-barrier has crashed (or been killed), and the whole round
    /// must fail loudly — the remaining workers are released by the
    /// orchestrator's teardown, never left deadlocked on a barrier that
    /// cannot complete.
    fn read_barrier_frame(&mut self, what: &str) -> Frame {
        match read_frame(&mut self.reader) {
            Ok(frame) => frame,
            Err(e) => self.barrier_failure(what, &e),
        }
    }

    /// Ships one coalesced batch, with the same loud diagnosis on failure
    /// (a dead worker surfaces here as a broken pipe).
    fn ship_batch(&mut self, batch: &[u8], what: &str) {
        if let Err(e) = self
            .writer
            .write_all(batch)
            .and_then(|()| self.writer.flush())
        {
            self.barrier_failure(what, &e);
        }
    }

    /// Panics with the worker's exit status when the process is known to be
    /// gone, or the raw I/O error otherwise.
    fn barrier_failure(&mut self, what: &str, e: &io::Error) -> ! {
        let status = self
            .child
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten());
        match status {
            Some(status) => panic!(
                "tcp worker (shard {}..{}) died mid-barrier ({status}) while the \
                 orchestrator was waiting for {what}: {e}",
                self.lo, self.hi
            ),
            None => panic!(
                "tcp worker (shard {}..{}) became unreachable mid-barrier while the \
                 orchestrator was waiting for {what}: {e}",
                self.lo, self.hi
            ),
        }
    }
}

impl StarWorker for Worker {
    fn shard(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    fn ship(&mut self, batch: &[u8]) {
        self.ship_batch(batch, "a round batch acknowledgement");
    }

    fn next_frame(&mut self) -> Frame {
        self.read_barrier_frame("the star round's echoes and commit token")
    }
}

impl TcpTransport {
    /// Binds the orchestrator listener (an ephemeral loopback port unless
    /// `addr` pins one), launches `workers` worker processes (`0` means
    /// [`DEFAULT_TCP_WORKERS`], clamped to `n`) unless `CC_TCP_EXTERN=1`
    /// defers to externally-run ones, completes the Hello/PeerAddr
    /// handshake, and distributes shard assignments plus the peer routing
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if the worker binary cannot be found or the workers fail to
    /// connect — a broken multi-process setup must fail loudly, not
    /// degrade into a different backend.
    #[must_use]
    pub fn new(n: usize, workers: usize, resident: bool, addr: Option<SocketAddr>) -> Self {
        let w = if workers == 0 {
            DEFAULT_TCP_WORKERS
        } else {
            workers
        }
        .clamp(1, n);
        let bind = addr.unwrap_or_else(|| "127.0.0.1:0".parse().expect("loopback addr"));
        let listener =
            TcpListener::bind(bind).unwrap_or_else(|e| panic!("bind orchestrator {bind}: {e}"));
        let local = listener.local_addr().expect("orchestrator local addr");
        listener
            .set_nonblocking(true)
            .expect("non-blocking accept loop");

        // With CC_TCP_EXTERN=1 the workers are launched out-of-band (other
        // hosts, other shells): print where to point them and wait.
        let external = std::env::var("CC_TCP_EXTERN").is_ok_and(|v| v == "1");
        let mut children: Vec<Option<Child>> = Vec::with_capacity(w);
        if external {
            eprintln!(
                "cc-transport: waiting for {w} external workers; run \
                 `cc-clique-host tcp://{local} <worker-index>` on each host"
            );
            children.resize_with(w, || None);
        } else {
            let bin = find_worker_binary(&["cc-clique-host", "cc-clique-node"]);
            for worker in 0..w {
                let child = Command::new(&bin)
                    .arg(format!("tcp://{local}"))
                    .arg(worker.to_string())
                    .spawn()
                    .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
                children.push(Some(child));
            }
        }

        // Workers connect in arbitrary order, identify themselves with a
        // Hello frame, and report their peer-listener address.
        let mut slots: Vec<Option<(Worker, String)>> = (0..w).map(|_| None).collect();
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        for _ in 0..w {
            let stream = accept_one(&listener, &mut children, deadline);
            stream.set_nodelay(true).expect("nodelay worker stream");
            stream
                .set_nonblocking(false)
                .expect("blocking worker stream");
            let mut reader = BufReader::new(stream.try_clone().expect("clone worker stream"));
            let writer = BufWriter::new(stream);
            let worker = match read_frame(&mut reader).expect("worker greeting") {
                Frame::Hello { worker } => worker as usize,
                other => panic!("expected Hello from worker, got {other:?}"),
            };
            let peer_addr = match read_frame(&mut reader).expect("worker peer address") {
                Frame::PeerAddr { worker: pw, addr } => {
                    assert_eq!(pw as usize, worker, "PeerAddr for a different worker");
                    addr
                }
                other => panic!("expected PeerAddr from worker, got {other:?}"),
            };
            assert!(worker < w, "worker index {worker} out of range");
            assert!(slots[worker].is_none(), "worker {worker} connected twice");
            let (lo, hi) = shard(n, w, worker);
            slots[worker] = Some((
                Worker {
                    child: children[worker].take(),
                    reader,
                    writer,
                    lo,
                    hi,
                },
                peer_addr,
            ));
        }

        let (mut workers, addrs): (Vec<Worker>, Vec<String>) = slots
            .into_iter()
            .map(|s| s.expect("every worker connected"))
            .unzip();

        // Distribute the shard assignment and the routing table; the peer
        // mesh itself is dialled lazily on the first resident session. The
        // assignment carries the orchestrator's trace level so workers
        // inherit it over the handshake instead of from a (possibly
        // absent) shared environment.
        let trace = cc_telemetry::global().level().name().to_string();
        for (idx, wk) in workers.iter_mut().enumerate() {
            let mut batch = Vec::new();
            push_frame(
                &mut batch,
                &Frame::Assign {
                    worker: idx as u32,
                    lo: wk.lo as u32,
                    count: (wk.hi - wk.lo) as u32,
                    n: n as u32,
                    trace: trace.clone(),
                },
            );
            push_frame(
                &mut batch,
                &Frame::Peers {
                    addrs: addrs.clone(),
                },
            );
            wk.writer
                .write_all(&batch)
                .and_then(|()| wk.writer.flush())
                .expect("ship assignment to worker");
        }

        Self {
            pending: Pending::new(n),
            epoch: 0,
            resident,
            workers,
            orchestrator_bytes: 0,
            peer_bytes: 0,
        }
    }

    /// Total worker→worker payload bytes reported across all resident
    /// sessions so far.
    #[must_use]
    pub fn peer_bytes(&self) -> u64 {
        self.peer_bytes
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
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
        // The star round barrier, shared with the socket backend.
        let round = star::finish_round(
            "tcp",
            &mut self.pending,
            &mut self.workers,
            self.epoch,
            &mut self.orchestrator_bytes,
        );
        self.epoch += 1;
        round
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn is_resident(&self) -> bool {
        self.resident
    }

    fn run_resident(
        &mut self,
        kind: &str,
        states: Vec<Vec<Word>>,
        on_round: &mut dyn FnMut(&LinkLoads),
    ) -> Option<ResidentOutcome> {
        if !self.resident {
            return None;
        }
        let n = self.pending.n();
        assert_eq!(states.len(), n, "one program state per node");
        let mut epoch = self.epoch;

        // Ship phase: each worker receives the session header and its
        // shard's encoded program states, once.
        for wk in &mut self.workers {
            let mut batch = Vec::new();
            push_frame(
                &mut batch,
                &Frame::ResidentStart {
                    epoch,
                    kind: kind.to_string(),
                },
            );
            for (node, state) in states.iter().enumerate().take(wk.hi).skip(wk.lo) {
                push_frame(
                    &mut batch,
                    &Frame::Program {
                        node: node as u32,
                        state: state.clone(),
                    },
                );
            }
            push_frame(&mut batch, &Frame::RoundEnd { epoch });
            wk.ship_batch(&batch, "a resident session start");
        }

        // Barrier-broker loop: one ResidentDone commit token per worker
        // per round, loads merged into the same canonical order every
        // other backend produces, then the Release that lets the next
        // round start. No payload ever crosses this process.
        let mut engine_rounds = 0u64;
        loop {
            let mut all_loads = Vec::new();
            let mut live_total = 0u64;
            let mut round_peer_bytes = 0u64;
            let barrier_start = Instant::now();
            for (idx, wk) in self.workers.iter_mut().enumerate() {
                loop {
                    match wk.read_barrier_frame("a resident round-commit token") {
                        Frame::Telemetry { worker, lines } => {
                            cc_telemetry::global().merge_worker(worker, &lines);
                        }
                        Frame::ResidentDone {
                            epoch: e,
                            live,
                            peer_bytes,
                            loads,
                        } => {
                            assert_eq!(e, epoch, "resident commit for a different epoch");
                            live_total += live as u64;
                            round_peer_bytes += peer_bytes;
                            all_loads.extend(
                                loads
                                    .into_iter()
                                    .map(|(s, d, w)| (s as usize, d as usize, w as usize)),
                            );
                            cc_telemetry::global().emit(cc_telemetry::TraceLevel::Rounds, || {
                                cc_telemetry::Event::BarrierLane {
                                    backend: "tcp",
                                    epoch,
                                    worker: idx as u32,
                                    wall_ns: barrier_start.elapsed().as_nanos() as u64,
                                }
                            });
                            break;
                        }
                        other => panic!("unexpected frame from resident worker: {other:?}"),
                    }
                }
            }
            let loads = merge_loads(all_loads);
            engine_rounds += 1;
            self.peer_bytes += round_peer_bytes;
            cc_telemetry::global().emit(cc_telemetry::TraceLevel::Rounds, || {
                cc_telemetry::Event::ResidentRound {
                    backend: "tcp",
                    epoch,
                    live: live_total,
                    peer_bytes: round_peer_bytes,
                    orchestrator_bytes: 0,
                }
            });
            on_round(&loads);
            let mut release = Vec::new();
            push_frame(
                &mut release,
                &Frame::Release {
                    epoch,
                    live: live_total as u32,
                },
            );
            for wk in &mut self.workers {
                wk.ship_batch(&release, "a round release acknowledgement");
            }
            epoch += 1;
            if live_total == 0 {
                break;
            }
        }

        // Collect finals: each worker returns its shard's encoded states.
        let mut finals: Vec<Vec<Word>> = vec![Vec::new(); n];
        for wk in &mut self.workers {
            let mut got = 0usize;
            loop {
                match wk.read_barrier_frame("the resident session's final states") {
                    Frame::Program { node, state } => {
                        let node = node as usize;
                        assert!(
                            (wk.lo..wk.hi).contains(&node),
                            "final state outside the worker's shard"
                        );
                        finals[node] = state;
                        got += 1;
                    }
                    Frame::Telemetry { worker, lines } => {
                        cc_telemetry::global().merge_worker(worker, &lines);
                    }
                    Frame::RoundEnd { epoch: e } => {
                        assert_eq!(e, epoch, "finals delimiter epoch mismatch");
                        break;
                    }
                    other => panic!("unexpected frame in resident finals: {other:?}"),
                }
            }
            assert_eq!(got, wk.hi - wk.lo, "worker returned a partial shard");
        }

        self.epoch = epoch;
        Some(ResidentOutcome {
            finals,
            engine_rounds,
        })
    }

    fn orchestrator_bytes(&self) -> u64 {
        self.orchestrator_bytes
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        for wk in &mut self.workers {
            let _ = write_frame(&mut wk.writer, &Frame::Shutdown);
            let _ = wk.writer.flush();
        }
        // Drain each stream to EOF before reaping: workers flush their
        // final telemetry snapshot on Shutdown, after all barrier traffic.
        // Anything unparseable (or a stream already dead) just ends the
        // drain — teardown must never fail on observer data.
        for wk in &mut self.workers {
            while let Ok(frame) = read_frame(&mut wk.reader) {
                if let Frame::Telemetry { worker, lines } = frame {
                    cc_telemetry::global().merge_worker(worker, &lines);
                }
            }
        }
        for wk in &mut self.workers {
            if let Some(child) = &mut wk.child {
                let _ = child.wait();
            }
        }
    }
}

/// Accepts one worker connection, polling so a worker that died before
/// connecting is reported instead of hanging the orchestrator forever.
fn accept_one(
    listener: &TcpListener,
    children: &mut [Option<Child>],
    deadline: Instant,
) -> TcpStream {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                for (i, child) in children.iter_mut().enumerate() {
                    if let Some(c) = child {
                        if let Ok(Some(status)) = c.try_wait() {
                            panic!("tcp worker {i} exited before connecting: {status}");
                        }
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "tcp workers did not connect within {ACCEPT_DEADLINE:?}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("accept worker connection: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The direct worker→worker links of one worker, plus the shared queue its
/// per-link reader threads drain into. Built lazily on the first resident
/// session and reused for every later one.
#[derive(Debug)]
struct Mesh {
    me: usize,
    /// `writers[j]` — the link to worker `j` (`None` at `me`).
    writers: Vec<Option<BufWriter<TcpStream>>>,
    /// Frames from all peers, tagged with the sending worker. Per-link
    /// FIFO order is preserved (one reader thread per link, one channel
    /// sender each).
    rx: mpsc::Receiver<(usize, io::Result<Frame>)>,
    /// `owner[dst]` — the worker simulating destination `dst`.
    owner: Vec<usize>,
}

impl Mesh {
    /// Establishes the full mesh: dial every lower-indexed peer, accept
    /// every higher-indexed one, identify links by Hello exchange, spawn
    /// one reader thread per link.
    fn connect(peers: &[String], me: usize, n: usize, listener: &TcpListener) -> io::Result<Self> {
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

        let owner = (0..w)
            .flat_map(|j| {
                let (lo, hi) = shard(n, w, j);
                std::iter::repeat_n(j, hi - lo)
            })
            .collect();
        Ok(Self {
            me,
            writers,
            rx,
            owner,
        })
    }

    /// Indices of all peer workers (everyone but `me`).
    fn peer_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.writers.len()).filter(move |&j| j != self.me)
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

/// The TCP worker process body: connect to the orchestrator, bind a peer
/// listener and report it, take the shard assignment and routing table,
/// then serve star rounds and program-resident sessions until told to shut
/// down. `addr` is the orchestrator's `host:port` (no scheme prefix);
/// `registry` supplies the decodable program kinds — transport-only
/// binaries pass [`ResidentRegistry::with_builtins`], the facade's
/// `cc-clique-host` registers algorithm programs on top.
pub fn tcp_worker_main(addr: &str, worker: u32, registry: ResidentRegistry) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // The peer listener binds the interface this worker reaches the
    // orchestrator through, so the advertised address is routable from the
    // other workers in multi-host runs.
    let peer_listener = TcpListener::bind((stream.local_addr()?.ip(), 0))?;
    let peer_addr = peer_listener.local_addr()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &Frame::Hello { worker })?;
    write_frame(
        &mut writer,
        &Frame::PeerAddr {
            worker,
            addr: peer_addr.to_string(),
        },
    )?;
    writer.flush()?;

    let (lo, count, n, trace) = match read_frame(&mut reader)? {
        Frame::Assign {
            worker: w,
            lo,
            count,
            n,
            trace,
        } => {
            check(w == worker, "assignment for a different worker")?;
            (lo as usize, count as usize, n as usize, trace)
        }
        other => return Err(protocol_error(&format!("expected Assign, got {other:?}"))),
    };
    let peers = match read_frame(&mut reader)? {
        Frame::Peers { addrs } => addrs,
        other => return Err(protocol_error(&format!("expected Peers, got {other:?}"))),
    };
    let wire = install_wire_sink(&trace);

    let mut mesh: Option<Mesh> = None;
    let mut epoch = 0u64;
    loop {
        match read_frame(&mut reader)? {
            Frame::Shutdown => {
                flush_telemetry(&mut writer, worker, wire.as_deref())?;
                return Ok(());
            }
            Frame::ResidentStart { epoch: e, kind } => {
                check(e == epoch, "resident session from a different epoch")?;
                let mesh = match &mut mesh {
                    Some(m) => m,
                    none => none.insert(Mesh::connect(&peers, worker as usize, n, &peer_listener)?),
                };
                epoch = resident_session(
                    &mut reader,
                    &mut writer,
                    mesh,
                    &registry,
                    &kind,
                    epoch,
                    lo,
                    count,
                    n,
                    worker,
                    wire.as_deref(),
                )?;
            }
            first => {
                epoch = star::serve_round(
                    "tcp",
                    &mut reader,
                    &mut writer,
                    first,
                    epoch,
                    (lo, count, n),
                    worker,
                    wire.as_deref(),
                )?;
            }
        }
    }
}

/// Installs the worker's telemetry from the orchestrator-forwarded trace
/// level name: a buffering [`cc_telemetry::WireSink`] when tracing is on
/// (events ship back piggybacked on commits), an explicit Off handle when
/// it isn't — the forwarded spec wins over whatever `CC_TRACE` the worker
/// process inherited, so multi-host workers behave like the orchestrator.
/// First-install-wins still applies: if the worker process already
/// initialised telemetry (in-process tests), the existing handle stays and
/// no events ship.
pub(crate) fn install_wire_sink(trace: &str) -> Option<Arc<cc_telemetry::WireSink>> {
    let level = cc_telemetry::TraceSpec::parse(trace)
        .map(|spec| spec.level)
        .unwrap_or_default();
    if level == cc_telemetry::TraceLevel::Off {
        let _ = cc_telemetry::install(cc_telemetry::Telemetry::off());
        return None;
    }
    let wire = Arc::new(cc_telemetry::WireSink::new());
    match cc_telemetry::install(cc_telemetry::Telemetry::with_sink(level, wire.clone())) {
        Ok(()) => Some(wire),
        Err(_) => None, // someone beat us to it; don't ship a dead buffer
    }
}

/// Appends one `Frame::Telemetry` carrying the wire sink's drained lines
/// to `batch`, if there is anything to ship. Returns without touching the
/// batch when tracing is off or nothing was captured, so an untraced run
/// puts zero extra bytes on the wire.
pub(crate) fn push_telemetry(
    batch: &mut Vec<u8>,
    worker: u32,
    wire: Option<&cc_telemetry::WireSink>,
) {
    let Some(wire) = wire else { return };
    if wire.is_empty() {
        return;
    }
    push_frame(
        batch,
        &Frame::Telemetry {
            worker,
            lines: wire.drain(),
        },
    );
}

/// Writes the final telemetry flush directly to the orchestrator stream
/// (the Shutdown path, where no batch is being assembled).
fn flush_telemetry(
    writer: &mut BufWriter<TcpStream>,
    worker: u32,
    wire: Option<&cc_telemetry::WireSink>,
) -> io::Result<()> {
    let mut batch = Vec::new();
    push_telemetry(&mut batch, worker, wire);
    if batch.is_empty() {
        return Ok(());
    }
    writer.write_all(&batch)?;
    writer.flush()
}

/// One full program-resident session: decode the shipped shard, then per
/// round — step the owned programs exactly as the engine steps them,
/// exchange payloads directly with the peer workers, account the owned
/// destinations' loads with the engine's formula, commit with a
/// [`Frame::ResidentDone`] token, and wait for the orchestrator's
/// [`Frame::Release`] — until the clique-wide live count hits zero, then
/// return the final encoded states. Returns the epoch after the session.
#[allow(clippy::too_many_arguments)]
fn resident_session(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    mesh: &mut Mesh,
    registry: &ResidentRegistry,
    kind: &str,
    mut epoch: u64,
    lo: usize,
    count: usize,
    n: usize,
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
                let program = registry.decode(kind, node, n, &state).ok_or_else(|| {
                    protocol_error(&format!(
                        "unknown resident program kind {kind:?}; register it in the worker binary"
                    ))
                })?;
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
    let mut inboxes: Vec<NodeInbox> = (0..count)
        .map(|_| NodeInbox::from_parts(vec![Vec::new(); n], vec![Vec::new(); n]))
        .collect();
    let mut round = 0u64;
    loop {
        // Step phase: exactly the engine's loop — halted programs produce
        // empty outboxes, a program's same-round sends are delivered even
        // when it halts this round.
        let mut outboxes = Vec::with_capacity(count);
        for (i, program) in programs.iter_mut().enumerate() {
            if halted[i] {
                outboxes.push(Default::default());
                continue;
            }
            let (control, outbox) = step_node(program.as_mut(), lo + i, n, round, &inboxes[i]);
            if control == Control::Halt {
                halted[i] = true;
            }
            outboxes.push(outbox);
        }
        let live_local = halted.iter().filter(|&&h| !h).count();
        round += 1;

        // Exchange phase: owned-destination traffic lands locally, the
        // rest ships straight to the owning peer; broadcasts ship to every
        // peer and apply locally to the whole owned shard.
        let mut rows: Vec<Vec<Word>> = vec![Vec::new(); count * n];
        let mut bcast_words = vec![0usize; n];
        let mut bcast_slabs: Vec<Vec<Arc<[Word]>>> = vec![Vec::new(); n];
        let mut batches: Vec<Vec<u8>> = vec![Vec::new(); mesh.writers.len()];
        let mut batch_frames = vec![0usize; mesh.writers.len()];
        for (i, outbox) in outboxes.into_iter().enumerate() {
            let src = lo + i;
            let (unicast, broadcast) = outbox.into_parts();
            for (dst, words) in unicast {
                if (lo..lo + count).contains(&dst) {
                    let lane = &mut rows[(dst - lo) * n + src];
                    if lane.is_empty() {
                        *lane = words;
                    } else {
                        lane.extend(words);
                    }
                } else {
                    push_frame(
                        &mut batches[mesh.owner[dst]],
                        &Frame::Payload {
                            epoch,
                            src: src as u32,
                            dst: dst as u32,
                            words,
                        },
                    );
                    batch_frames[mesh.owner[dst]] += 1;
                }
            }
            for slab in broadcast {
                bcast_words[src] += slab.len();
                let bytes = Frame::Bcast {
                    epoch,
                    src: src as u32,
                    words: slab.to_vec(),
                }
                .encode();
                for j in mesh.peer_indices() {
                    push_frame_bytes(&mut batches[j], &bytes);
                    batch_frames[j] += 1;
                }
                bcast_slabs[src].push(slab);
            }
        }
        let mut peer_bytes = 0u64;
        for j in mesh.peer_indices() {
            push_frame(&mut batches[j], &Frame::RoundEnd { epoch });
            batch_frames[j] += 1;
            peer_bytes += batches[j].len() as u64;
        }
        for (j, batch) in batches.iter().enumerate() {
            if j == mesh.me {
                continue;
            }
            let w = mesh.writers[j].as_mut().expect("mesh link");
            w.write_all(batch)?;
            w.flush()?;
            cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
                cc_telemetry::Event::FrameBatch {
                    backend: "tcp",
                    frames: batch_frames[j],
                    bytes: batch.len(),
                }
            });
        }

        // Drain peers until every link has delimited the round. The
        // Release barrier guarantees no peer can be a round ahead, so
        // every frame seen here belongs to this epoch.
        let mut ends = 0usize;
        let peer_count = mesh.writers.len() - 1;
        while ends < peer_count {
            let (_peer, frame) = mesh
                .rx
                .recv()
                .map_err(|_| protocol_error("peer mesh closed mid-round"))?;
            match frame? {
                Frame::Payload {
                    epoch: e,
                    src,
                    dst,
                    words,
                } => {
                    check(e == epoch, "peer payload from a different epoch")?;
                    let (src, dst) = (src as usize, dst as usize);
                    check(
                        src < n && (lo..lo + count).contains(&dst),
                        "misrouted peer payload",
                    )?;
                    let lane = &mut rows[(dst - lo) * n + src];
                    if lane.is_empty() {
                        *lane = words;
                    } else {
                        lane.extend(words);
                    }
                }
                Frame::Bcast {
                    epoch: e,
                    src,
                    words,
                } => {
                    check(e == epoch, "peer broadcast from a different epoch")?;
                    let src = src as usize;
                    check(src < n, "peer broadcast source out of range")?;
                    bcast_words[src] += words.len();
                    bcast_slabs[src].push(words.into());
                }
                Frame::RoundEnd { epoch: e } => {
                    check(e == epoch, "peer round delimiter epoch mismatch")?;
                    ends += 1;
                }
                other => return Err(protocol_error(&format!("unexpected peer frame {other:?}"))),
            }
        }

        // Accounting: the engine's per-link formula over the owned
        // destinations (self links free, broadcast charged on every
        // outgoing link of its source).
        let mut loads: Vec<(u32, u32, u64)> = Vec::new();
        for d in 0..count {
            let dst = lo + d;
            for src in 0..n {
                let charged = if src == dst {
                    0
                } else {
                    rows[d * n + src].len() + bcast_words[src]
                };
                if charged > 0 {
                    loads.push((src as u32, dst as u32, charged as u64));
                }
            }
        }

        // Next round's inboxes: per-source unicast lanes plus the full
        // broadcast lane set (every node hears every slab, sender
        // included) — what the engine's `NodeInbox` is made of.
        for d in 0..count {
            let unicast: Vec<Vec<Word>> = (0..n)
                .map(|src| std::mem::take(&mut rows[d * n + src]))
                .collect();
            inboxes[d] = NodeInbox::from_parts(unicast, bcast_slabs.clone());
        }

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
    use crate::TransportFabric;
    use cc_runtime::{EchoRingProgram, Engine, ExecutorKind, Fabric as _};

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
        let mut reference =
            cc_runtime::EngineFabric::new(cc_runtime::Executor::new(ExecutorKind::Sequential));
        let expected = run_echo_ring(&mut reference, n);

        let mut transport = TcpTransport::new(n, 2, false, None);
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
        let mut reference =
            cc_runtime::EngineFabric::new(cc_runtime::Executor::new(ExecutorKind::Sequential));
        let expected = run_echo_ring(&mut reference, n);

        let mut transport = TcpTransport::new(n, 3, true, None);
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
            let mut star = TcpTransport::new(n, 2, false, None);
            let mut fabric = TransportFabric::new(&mut star);
            run_echo_ring(&mut fabric, n);
            star.epoch()
        };
        assert_eq!(transport.epoch(), star_epochs);
    }

    #[test]
    fn killed_worker_fails_the_round_barrier_loudly() {
        let n = 6;
        let mut transport = TcpTransport::new(n, 2, false, None);
        // A warm round proves the fabric works before the sabotage.
        transport.send(0, 1, &[1, 2]);
        let _ = transport.finish_round();

        // Kill worker 0's process and reap it, so the next barrier meets a
        // dead stream rather than a slow worker.
        let child = transport.workers[0]
            .child
            .as_mut()
            .expect("spawned workers carry a child handle");
        child.kill().expect("kill tcp worker");
        let _ = child.wait();

        transport.send(0, 1, &[3]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = transport.finish_round();
        }));
        // The regression this pins: the barrier must fail with a diagnosis,
        // not hang waiting for a commit token that can never arrive (the
        // test harness itself would time out) and not report an opaque
        // broken-pipe error.
        let payload = result.expect_err("a dead worker must fail the barrier");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a message");
        assert!(
            msg.contains("mid-barrier"),
            "barrier failure must diagnose the dead worker: {msg}"
        );
    }

    #[test]
    fn tcp_resident_single_worker_degenerates_gracefully() {
        // w clamps to 1 ⇒ no peer links at all; everything is local and
        // the orchestrator still only brokers the barrier.
        let n = 3;
        let mut transport = TcpTransport::new(n, 1, true, None);
        let engine = Engine::new(ExecutorKind::Sequential);
        let mut fabric = TransportFabric::new(&mut transport);
        let report = engine.run_wire_traced_on(
            &mut fabric,
            (0..n).map(|_| EchoRingProgram::new(2)).collect(),
            |_: &LinkLoads| {},
        );
        let mut reference =
            cc_runtime::EngineFabric::new(cc_runtime::Executor::new(ExecutorKind::Sequential));
        let expected = engine.run_wire_traced_on(
            &mut reference,
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
