//! The process fabric over stream sockets, unix-domain or TCP: one
//! orchestrator, worker processes each simulating a contiguous shard of
//! destinations, length-prefixed [`Frame`]s over one connection per worker
//! (setup, star rounds and the resident mode are described in the crate
//! docs). The two socket families differ in [`Listener`] and [`Stream`]
//! only; everything after `bind` — spawn, accept, handshake, the star round
//! (the `star` module), the program-resident broker loop, teardown — exists
//! once.

use crate::frame::{push_frame, read_frame, write_frame, Frame, MAX_FRAME_BYTES};
use crate::pending::Pending;
use crate::star::{self, check, protocol_error};
use crate::tcp::{resident_session, Mesh};
use crate::{LinkSlab, RoundDelivery, Transport};
use cc_runtime::{LinkLoads, ResidentOutcome, ResidentRegistry, Word};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker-process count when a [`crate::TransportKind`] says `workers: 0`
/// (clamped to `n`). Two processes is the cheapest configuration that still
/// exercises every cross-process code path; raise it
/// (`CC_TRANSPORT=socket:8`) to spread node shards wider.
pub const DEFAULT_STREAM_WORKERS: usize = 2;

/// How long the orchestrator waits for all workers to connect (and workers
/// wait for their peers) before declaring the setup failed.
pub(crate) const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// One connection of the fabric.
#[derive(Debug)]
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Connects a worker to its orchestrator's endpoint.
    fn connect(endpoint: &str) -> io::Result<Self> {
        if let Some(path) = endpoint.strip_prefix("unix://") {
            Ok(Stream::Unix(UnixStream::connect(path)?))
        } else if let Some(addr) = endpoint.strip_prefix("tcp://") {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(Stream::Tcp(stream))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("endpoint {endpoint:?} is neither unix://<path> nor tcp://<host>:<port>"),
            ))
        }
    }

    /// The backend name telemetry events and diagnoses carry.
    fn backend(&self) -> &'static str {
        match self {
            Stream::Unix(_) => "socket",
            Stream::Tcp(_) => "tcp",
        }
    }

    /// Buffered read and write halves of the one connection.
    fn into_halves(self) -> io::Result<(BufReader<Stream>, BufWriter<Stream>)> {
        let clone = match &self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        };
        Ok((BufReader::new(clone), BufWriter::new(self)))
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// What the orchestrator's workers connect to. A unix listener owns its
/// socket file: dropping it — when every worker has connected, or while a
/// failed setup unwinds — unlinks the file.
#[derive(Debug)]
enum Listener {
    Unix {
        listener: UnixListener,
        path: PathBuf,
    },
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a fresh socket file under the temporary directory.
    fn bind_unix() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("cc-clique-{}-{id}.sock", std::process::id()));
        let listener =
            UnixListener::bind(&path).unwrap_or_else(|e| panic!("bind {}: {e}", path.display()));
        listener
            .set_nonblocking(true)
            .expect("non-blocking accept loop");
        Listener::Unix { listener, path }
    }

    /// Binds `addr`, or an ephemeral loopback port.
    fn bind_tcp(addr: Option<SocketAddr>) -> Self {
        let bind = addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
        let listener =
            TcpListener::bind(bind).unwrap_or_else(|e| panic!("bind orchestrator {bind}: {e}"));
        listener
            .set_nonblocking(true)
            .expect("non-blocking accept loop");
        Listener::Tcp(listener)
    }

    /// The endpoint string a worker is pointed at.
    fn endpoint(&self) -> String {
        match self {
            Listener::Unix { path, .. } => format!("unix://{}", path.display()),
            Listener::Tcp(l) => format!("tcp://{}", l.local_addr().expect("orchestrator addr")),
        }
    }

    /// One non-blocking accept; the accepted stream itself blocks.
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix { listener, .. } => {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(false)?;
                Ok(Stream::Unix(stream))
            }
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Accepts one worker connection, polling so a worker that died before
/// connecting (bad binary, crash on startup) is reported instead of hanging
/// the orchestrator forever.
fn accept_one(listener: &Listener, children: &mut [Option<Child>], deadline: Instant) -> Stream {
    loop {
        match listener.accept() {
            Ok(stream) => return stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                for (i, child) in children.iter_mut().enumerate() {
                    if let Some(Ok(Some(status))) = child.as_mut().map(Child::try_wait) {
                        panic!("worker {i} exited before connecting: {status}");
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "workers did not connect within {ACCEPT_DEADLINE:?}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("accept worker connection: {e}"),
        }
    }
}

/// The orchestrator's handle on one worker process.
#[derive(Debug)]
pub(crate) struct Worker {
    /// `None` for externally-launched workers (`CC_TCP_EXTERN=1`).
    child: Option<Child>,
    reader: BufReader<Stream>,
    writer: BufWriter<Stream>,
    /// Destination shard `[lo, hi)` this worker simulates.
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

impl Worker {
    /// Reads the worker's next barrier frame, merging the telemetry
    /// snapshots that ride ahead of it. A worker whose stream dies
    /// mid-barrier has crashed (or been killed), and the whole round must
    /// fail with a diagnosis — the remaining workers are released by the
    /// orchestrator's teardown, never left on a barrier that cannot complete.
    pub(crate) fn next_frame(&mut self, what: &str) -> Frame {
        loop {
            match read_frame(&mut self.reader) {
                Ok(Frame::Telemetry { worker, lines }) => {
                    cc_telemetry::global().merge_worker(worker, &lines);
                }
                Ok(frame) => return frame,
                Err(e) => self.barrier_failure(what, &e),
            }
        }
    }

    /// Ships one coalesced batch and flushes, with the same diagnosis on
    /// failure (a dead worker surfaces here as a broken pipe).
    pub(crate) fn ship(&mut self, batch: &[u8], what: &str) {
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
        let backend = self.writer.get_ref().backend();
        let (lo, hi) = (self.lo, self.hi);
        let exited = self
            .child
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten());
        let fate = match exited {
            Some(status) => format!("died mid-barrier ({status})"),
            None => "became unreachable mid-barrier".to_string(),
        };
        panic!(
            "{backend} worker (shard {lo}..{hi}) {fate} while the orchestrator was waiting \
             for {what}: {e}"
        )
    }
}

/// True multi-process simulation over unix sockets ([`StreamTransport::unix`],
/// backend `"socket"`) or TCP ([`StreamTransport::tcp`], backend `"tcp"`,
/// host-portable, optionally program-resident); see the crate docs.
///
/// The worker binary is located via the `CC_NODE_BIN` environment variable,
/// next to the current executable, or in the build's target directory.
#[derive(Debug)]
pub struct StreamTransport {
    backend: &'static str,
    pending: Pending,
    epoch: u64,
    resident: bool,
    workers: Vec<Worker>,
    /// Encoded payload/broadcast bytes shipped through this orchestrator.
    /// Star rounds add every round's traffic; resident rounds add nothing.
    orchestrator_bytes: u64,
    /// Encoded payload bytes exchanged worker→worker across all resident
    /// sessions (reported by the workers' commit tokens).
    peer_bytes: u64,
}

impl StreamTransport {
    /// Spawns `workers` `cc-clique-node` processes (`0` means
    /// [`DEFAULT_STREAM_WORKERS`], always clamped to `n`) and connects them
    /// over a fresh unix socket.
    ///
    /// # Panics
    ///
    /// Panics if the worker binary cannot be found or the workers fail to
    /// connect — a broken multi-process setup must fail loudly, not degrade
    /// into a different backend.
    #[must_use]
    pub fn unix(n: usize, workers: usize) -> Self {
        let bin = find_worker_binary(&["cc-clique-node"]);
        Self::launch(Listener::bind_unix(), Some(&bin), n, workers, false)
    }

    /// Binds the orchestrator listener (an ephemeral loopback port unless
    /// `addr` pins one) and launches `workers` `cc-clique-host` (else
    /// `cc-clique-node`) processes — or, with `CC_TCP_EXTERN=1`, prints
    /// where to point externally-run ones and waits for them. `resident`
    /// selects the program-resident mode.
    ///
    /// # Panics
    ///
    /// As [`StreamTransport::unix`].
    #[must_use]
    pub fn tcp(n: usize, workers: usize, resident: bool, addr: Option<SocketAddr>) -> Self {
        let external = std::env::var("CC_TCP_EXTERN").is_ok_and(|v| v == "1");
        let bin = (!external).then(|| find_worker_binary(&["cc-clique-host", "cc-clique-node"]));
        Self::launch(
            Listener::bind_tcp(addr),
            bin.as_deref(),
            n,
            workers,
            resident,
        )
    }

    /// Everything after `bind`: spawn `bin` per worker (`None`: wait for
    /// external workers), accept them, complete the handshake.
    fn launch(
        listener: Listener,
        bin: Option<&Path>,
        n: usize,
        workers: usize,
        resident: bool,
    ) -> Self {
        let w = if workers == 0 {
            DEFAULT_STREAM_WORKERS
        } else {
            workers
        }
        .clamp(1, n);
        let endpoint = listener.endpoint();
        if bin.is_none() {
            eprintln!(
                "cc-transport: waiting for {w} external workers; run \
                 `cc-clique-host {endpoint} <worker-index>` on each host"
            );
        }
        let mut children: Vec<Option<Child>> = (0..w)
            .map(|worker| {
                let bin = bin?;
                let child = Command::new(bin)
                    .arg(&endpoint)
                    .arg(worker.to_string())
                    .spawn()
                    .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
                Some(child)
            })
            .collect();

        // Workers connect in arbitrary order, identify themselves with a
        // Hello frame, and report their peer-listener address.
        let mut slots: Vec<Option<(Worker, String)>> = (0..w).map(|_| None).collect();
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        for _ in 0..w {
            let stream = accept_one(&listener, &mut children, deadline);
            let (mut reader, writer) = stream.into_halves().expect("clone worker stream");
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
            let child = children[worker].take();
            let handle = Worker {
                child,
                reader,
                writer,
                lo,
                hi,
            };
            slots[worker] = Some((handle, peer_addr));
        }
        // Every worker is connected: the socket file has served its purpose.
        drop(listener);
        let (mut workers, addrs): (Vec<Worker>, Vec<String>) = slots
            .into_iter()
            .map(|s| s.expect("every worker connected"))
            .unzip();
        let backend = workers[0].writer.get_ref().backend();

        // Distribute the shard assignment and the routing table; the peer
        // mesh itself is dialled lazily on the first resident session.
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
            wk.ship(&batch, "its shard assignment to go out");
        }

        Self {
            backend,
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

    /// Kills worker `idx`'s process and reaps it, so the next barrier meets
    /// a dead stream rather than a slow worker.
    #[cfg(test)]
    pub(crate) fn kill_worker(&mut self, idx: usize) {
        let child = self.workers[idx]
            .child
            .as_mut()
            .expect("spawned workers carry a child handle");
        child.kill().expect("kill worker");
        let _ = child.wait();
    }
}

impl Transport for StreamTransport {
    fn name(&self) -> &'static str {
        self.backend
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
        let round = star::finish_round(
            self.backend,
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
        let backend = self.backend;
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
            wk.ship(&batch, "a resident session start");
        }

        // Barrier-broker loop: one ResidentDone commit token per worker
        // per round — workers own ascending destination shards, so their
        // tables laid end to end are the clique's `charged[dst * n + src]`
        // — then the Release that lets the next round start. No payload
        // ever crosses this process.
        let mut engine_rounds = 0u64;
        loop {
            let mut charged: Vec<u32> = Vec::with_capacity(n * n);
            let mut live_total = 0u64;
            let mut round_peer_bytes = 0u64;
            let barrier_start = Instant::now();
            for (idx, wk) in self.workers.iter_mut().enumerate() {
                match wk.next_frame("a resident round-commit token") {
                    Frame::ResidentDone {
                        epoch: e,
                        live,
                        peer_bytes,
                        loads,
                    } => {
                        assert_eq!(e, epoch, "resident commit for a different epoch");
                        assert_eq!(
                            loads.len(),
                            (wk.hi - wk.lo) * n,
                            "commit table does not cover the worker's shard"
                        );
                        live_total += live as u64;
                        round_peer_bytes += peer_bytes;
                        charged.extend_from_slice(&loads);
                        cc_telemetry::global().emit(cc_telemetry::TraceLevel::Rounds, || {
                            cc_telemetry::Event::BarrierLane {
                                backend,
                                epoch,
                                worker: idx as u32,
                                wall_ns: barrier_start.elapsed().as_nanos() as u64,
                            }
                        });
                    }
                    other => panic!("unexpected frame from resident worker: {other:?}"),
                }
            }
            let loads = LinkLoads::from_counts(n, charged);
            engine_rounds += 1;
            self.peer_bytes += round_peer_bytes;
            cc_telemetry::global().emit(cc_telemetry::TraceLevel::Rounds, || {
                cc_telemetry::Event::ResidentRound {
                    backend,
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
                wk.ship(&release, "a round release acknowledgement");
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
                match wk.next_frame("the resident session's final states") {
                    Frame::Program { node, state } => {
                        let node = node as usize;
                        assert!(
                            (wk.lo..wk.hi).contains(&node),
                            "final state outside the worker's shard"
                        );
                        finals[node] = state;
                        got += 1;
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

impl Drop for StreamTransport {
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

/// The contiguous destination shard `[lo, hi)` of `worker` among `w`
/// workers over `n` nodes.
pub(crate) fn shard(n: usize, w: usize, worker: usize) -> (usize, usize) {
    (worker * n / w, (worker + 1) * n / w)
}

/// Locates a worker binary by trying each candidate `names` entry: the
/// `CC_NODE_BIN` override first, then next to (or one/two levels above) the
/// current executable — which covers installed binaries, test executables
/// in `target/<profile>/deps`, and examples in `target/<profile>/examples`
/// — then the build-time target directory baked in by `build.rs` (which
/// covers doctests, whose executables live in temporary directories).
/// Earlier `names` win over later ones, so a registry-rich facade binary
/// can shadow the builtin-only fallback.
fn find_worker_binary(names: &[&str]) -> PathBuf {
    if let Ok(path) = std::env::var("CC_NODE_BIN") {
        return PathBuf::from(path);
    }
    let mut candidates = Vec::new();
    for name in names {
        if let Ok(exe) = std::env::current_exe() {
            if let Some(dir) = exe.parent() {
                candidates.push(dir.join(name));
                candidates.push(dir.join("..").join(name));
                candidates.push(dir.join("..").join("..").join(name));
            }
        }
        candidates.push(PathBuf::from(env!("CC_TRANSPORT_PROFILE_DIR")).join(name));
    }
    for c in &candidates {
        if c.is_file() {
            return c.clone();
        }
    }
    panic!(
        "worker binary not found (searched {candidates:?}); build it with \
         `cargo build` or point CC_NODE_BIN at it"
    );
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// What the orchestrator told a worker at setup, checked.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Assignment {
    /// First owned destination, shard width, clique size.
    pub(crate) lo: usize,
    pub(crate) count: usize,
    pub(crate) n: usize,
    /// Orchestrator-forwarded `CC_TRACE` level name.
    trace: String,
    /// `peers[w]` — worker `w`'s peer-listener address (empty: none bound).
    peers: Vec<String>,
}

/// The worker's half of the setup: greet with `Hello` + `PeerAddr`, take
/// `Assign` + `Peers`. Everything later is sized from the assignment
/// (`count · n` table entries per shard frame, `n` broadcast tallies), so an
/// assignment the worker could not serve is refused here, by name, before
/// anything is allocated for it.
pub(crate) fn worker_handshake<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    worker: u32,
    peer_addr: &str,
) -> io::Result<Assignment> {
    write_frame(writer, &Frame::Hello { worker })?;
    let addr = peer_addr.to_string();
    write_frame(writer, &Frame::PeerAddr { worker, addr })?;
    writer.flush()?;

    let (lo, count, n, trace) = match read_frame(reader)? {
        Frame::Assign {
            worker: w,
            lo,
            count,
            n,
            trace,
        } => {
            check(w == worker, "assignment for a different worker")?;
            (u64::from(lo), u64::from(count), u64::from(n), trace)
        }
        other => return Err(protocol_error(&format!("expected Assign, got {other:?}"))),
    };
    check(n > 0, "assignment for an empty clique")?;
    check(lo + count <= n, "assigned shard reaches past the clique")?;
    check(
        // An empty shard must not leave `n` unbounded, hence `max(1)`; the
        // product cannot overflow, both factors came off the wire as `u32`.
        count.max(1) * n <= (MAX_FRAME_BYTES / 4) as u64,
        "assigned shard's length table could not fit a frame",
    )?;
    let peers = match read_frame(reader)? {
        Frame::Peers { addrs } => addrs,
        other => return Err(protocol_error(&format!("expected Peers, got {other:?}"))),
    };
    check(
        peers.len() as u64 > u64::from(worker),
        "routing table does not reach this worker",
    )?;
    Ok(Assignment {
        lo: lo as usize,
        count: count as usize,
        n: n as usize,
        trace,
        peers,
    })
}

/// The worker process body: connect to the orchestrator at `endpoint`
/// (`unix://<path>` or `tcp://<host>:<port>`), complete the handshake —
/// on TCP after binding the peer listener whose address it reports — then
/// serve star rounds and, where a peer listener exists, program-resident
/// sessions until told to shut down. `registry` supplies the decodable
/// program kinds: `cc-clique-node` passes
/// [`ResidentRegistry::with_builtins`], the facade's `cc-clique-host`
/// registers algorithm programs on top.
pub fn worker_main(endpoint: &str, worker: u32, registry: ResidentRegistry) -> io::Result<()> {
    let stream = Stream::connect(endpoint)?;
    let backend = stream.backend();
    // The peer listener binds the interface this worker reaches the
    // orchestrator through, so the advertised address is routable from the
    // other workers in multi-host runs.
    let peer_listener = match &stream {
        Stream::Unix(_) => None,
        Stream::Tcp(s) => Some(TcpListener::bind((s.local_addr()?.ip(), 0))?),
    };
    let peer_addr = match &peer_listener {
        None => String::new(),
        Some(l) => l.local_addr()?.to_string(),
    };
    let (mut reader, mut writer) = stream.into_halves()?;
    let assigned = worker_handshake(&mut reader, &mut writer, worker, &peer_addr)?;
    let wire = install_wire_sink(&assigned.trace);

    let mut mesh: Option<Mesh> = None;
    let mut epoch = 0u64;
    loop {
        match read_frame(&mut reader)? {
            Frame::Shutdown => {
                // Whatever the sink buffered since the last commit travels
                // as the worker's last frames before exit.
                let mut batch = Vec::new();
                push_telemetry(&mut batch, worker, wire.as_deref());
                writer.write_all(&batch)?;
                return writer.flush();
            }
            Frame::ResidentStart { epoch: e, kind } => {
                let Some(listener) = &peer_listener else {
                    return Err(protocol_error(
                        "ResidentStart on a worker without a peer listener",
                    ));
                };
                check(e == epoch, "resident session from a different epoch")?;
                let mesh = match &mut mesh {
                    Some(m) => m,
                    none => none.insert(Mesh::connect(
                        &assigned.peers,
                        worker as usize,
                        assigned.n,
                        listener,
                    )?),
                };
                epoch = resident_session(
                    &mut reader,
                    &mut writer,
                    mesh,
                    &registry,
                    &kind,
                    epoch,
                    &assigned,
                    worker,
                    wire.as_deref(),
                )?;
            }
            first => {
                epoch = star::serve_round(
                    backend,
                    &mut reader,
                    &mut writer,
                    first,
                    epoch,
                    (assigned.lo, assigned.count, assigned.n),
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
/// it isn't or the name is unknown — the forwarded spec wins over whatever
/// `CC_TRACE` the worker process inherited, so multi-host workers behave
/// like the orchestrator. First-install-wins still applies: if the worker
/// process already initialised telemetry (in-process tests), the existing
/// handle stays and no events ship.
fn install_wire_sink(trace: &str) -> Option<Arc<cc_telemetry::WireSink>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame_batch;
    use std::io::Cursor;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn shards_partition_the_node_range() {
        for n in [1, 2, 5, 16, 257] {
            for w in 1..=n.min(8) {
                let mut covered = 0;
                for worker in 0..w {
                    let (lo, hi) = shard(n, w, worker);
                    assert_eq!(lo, covered, "shards must be contiguous");
                    assert!(hi > lo || n < w, "no empty shards when n >= w");
                    covered = hi;
                }
                assert_eq!(covered, n);
            }
        }
    }

    /// Worker 1's handshake against an orchestrator that answers `reply`:
    /// the assignment it accepted and the frames it greeted with.
    fn handshake(reply: &[Frame]) -> io::Result<(Assignment, Vec<Frame>)> {
        let mut reader = Cursor::new(encode_frame_batch(reply));
        let mut written = Vec::new();
        let assigned = worker_handshake(&mut reader, &mut written, 1, "10.0.0.2:7")?;
        let mut written = Cursor::new(written);
        let greeting = [read_frame(&mut written)?, read_frame(&mut written)?];
        assert_eq!(written.position(), written.get_ref().len() as u64);
        Ok((assigned, greeting.to_vec()))
    }

    fn assign(worker: u32, lo: u32, count: u32, n: u32) -> Frame {
        // An unknown level name is not refused: it resolves to "off" at
        // install, as it always has.
        let trace = "loud".to_string();
        Frame::Assign {
            worker,
            lo,
            count,
            n,
            trace,
        }
    }

    fn peers(workers: usize) -> Frame {
        let addrs = vec![String::new(); workers];
        Frame::Peers { addrs }
    }

    #[test]
    fn a_worker_takes_a_sound_assignment_and_refuses_the_rest_by_name() {
        let (assigned, greeting) = handshake(&[assign(1, 3, 4, 7), peers(2)]).unwrap();
        let expected = Assignment {
            lo: 3,
            count: 4,
            n: 7,
            trace: "loud".to_string(),
            peers: vec![String::new(); 2],
        };
        assert_eq!(assigned, expected);
        let addr = "10.0.0.2:7".to_string();
        let peer_addr = Frame::PeerAddr { worker: 1, addr };
        assert_eq!(greeting, vec![Frame::Hello { worker: 1 }, peer_addr]);

        // One entry past what a frame can carry, and the widest claims the
        // wire can make: none may reach `vec![0; n]` or `count * n`.
        let wide = (MAX_FRAME_BYTES / 4 / 2) as u32 + 1;
        let max = u32::MAX;
        let past = "assigned shard reaches past the clique";
        let table = "assigned shard's length table could not fit a frame";
        let refused = [
            (
                assign(0, 3, 4, 7),
                peers(2),
                "assignment for a different worker",
            ),
            (
                assign(1, 0, 0, 0),
                peers(2),
                "assignment for an empty clique",
            ),
            (assign(1, 4, 4, 7), peers(2), past),
            (assign(1, 8, 0, 7), peers(2), past),
            (assign(1, max, max, 7), peers(2), past),
            (assign(1, 0, 2, wide), peers(2), table),
            (assign(1, 0, 0, max), peers(2), table),
            (assign(1, 0, max, max), peers(2), table),
            (
                assign(1, 3, 4, 7),
                peers(1),
                "routing table does not reach this worker",
            ),
            (Frame::Shutdown, peers(2), "expected Assign, got Shutdown"),
            (
                assign(1, 3, 4, 7),
                Frame::Shutdown,
                "expected Peers, got Shutdown",
            ),
        ];
        for (first, second, reason) in refused {
            let err = handshake(&[first, second]).expect_err(reason);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reason}");
            assert_eq!(err.to_string(), reason);
        }
    }

    /// Plays the orchestrator of a 2-clique for one in-process worker 0:
    /// takes its greeting, assigns it the whole clique, sends `then`, and
    /// returns the greeting and how the worker ended.
    fn host_one_worker(listener: Listener, then: Frame) -> (Vec<Frame>, io::Result<()>) {
        // Initialise telemetry first, as an orchestrator has: the worker's
        // own install then leaves this process's handle alone.
        let trace = cc_telemetry::global().level().name().to_string();
        let endpoint = listener.endpoint();
        let worker = std::thread::spawn(move || {
            worker_main(&endpoint, 0, ResidentRegistry::with_builtins())
        });
        let stream = accept_one(&listener, &mut [], Instant::now() + ACCEPT_DEADLINE);
        let (mut reader, mut writer) = stream.into_halves().unwrap();
        let greeting = vec![
            read_frame(&mut reader).unwrap(),
            read_frame(&mut reader).unwrap(),
        ];
        let assign = Frame::Assign {
            worker: 0,
            lo: 0,
            count: 2,
            n: 2,
            trace,
        };
        let batch = encode_frame_batch(&[assign, peers(1), then]);
        writer.write_all(&batch).unwrap();
        writer.flush().unwrap();
        while read_frame(&mut reader).is_ok() {}
        (greeting, worker.join().expect("worker thread"))
    }

    #[test]
    fn unix_and_tcp_workers_share_one_handshake_and_only_tcp_hosts_programs() {
        let (tcp, ended) = host_one_worker(Listener::bind_tcp(None), Frame::Shutdown);
        ended.expect("a TCP worker shuts down cleanly");
        let start = Frame::ResidentStart {
            epoch: 0,
            kind: "echo-ring".to_string(),
        };
        let (unix, ended) = host_one_worker(Listener::bind_unix(), start);
        let err = ended.expect_err("a unix worker has no peer mesh to run programs on");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "ResidentStart on a worker without a peer listener"
        );

        // The same two frames, apart from the address in the second.
        assert_eq!(unix[0], Frame::Hello { worker: 0 });
        let addr = String::new();
        assert_eq!(unix[1], Frame::PeerAddr { worker: 0, addr });
        assert_eq!(tcp[0], unix[0]);
        let Frame::PeerAddr { worker: 0, addr } = &tcp[1] else {
            panic!("expected PeerAddr, got {:?}", tcp[1]);
        };
        addr.parse::<SocketAddr>().expect("a dialable peer address");
    }

    fn bound_unix() -> (Listener, PathBuf) {
        let listener = Listener::bind_unix();
        let Listener::Unix { path, .. } = &listener else {
            unreachable!("bind_unix binds a unix listener");
        };
        let path = path.clone();
        assert!(path.exists());
        (listener, path)
    }

    #[test]
    fn the_socket_file_outlives_neither_a_finished_nor_a_failed_setup() {
        let (listener, path) = bound_unix();
        let node = find_worker_binary(&["cc-clique-node"]);
        let mut fabric = StreamTransport::launch(listener, Some(&node), 3, 2, false);
        assert!(!path.exists(), "unlinked once every worker is connected");
        fabric.send(0, 2, &[5]);
        assert_eq!(fabric.finish_round().unicast.link(0, 2), &[5]);

        // A worker binary that cannot be spawned.
        let (listener, path) = bound_unix();
        let missing = Path::new("/nonexistent/cc-clique-node");
        let setup =
            AssertUnwindSafe(|| StreamTransport::launch(listener, Some(missing), 3, 2, false));
        assert!(catch_unwind(setup).is_err());
        assert!(!path.exists(), "unlinked while the failed spawn unwinds");

        // A child that exits without connecting (this test binary, asked
        // only to list its tests).
        let (listener, path) = bound_unix();
        let child = Command::new(std::env::current_exe().unwrap())
            .arg("--list")
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        let accept = AssertUnwindSafe(move || accept_one(&listener, &mut [Some(child)], deadline));
        let panic = catch_unwind(accept).expect_err("a dead child must fail the setup");
        let msg = panic.downcast_ref::<String>().expect("a message");
        assert!(msg.contains("worker 0 exited before connecting"), "{msg}");
        assert!(!path.exists(), "unlinked while the failed accept unwinds");
    }
}
