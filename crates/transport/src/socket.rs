//! The multi-process backend: a parent orchestrator and `cc-clique-node`
//! worker processes exchanging length-prefixed frames over unix sockets.

use crate::frame::{read_frame, write_frame, Frame};
use crate::pending::Pending;
use crate::star::{self, StarWorker};
use crate::{LinkSlab, RoundDelivery, Transport};
use cc_runtime::Word;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default worker-process count when [`crate::TransportKind::Socket`] has
/// `workers: 0` (clamped to `n`). Two processes is the cheapest
/// configuration that still exercises every cross-process code path; raise
/// it (`CC_TRANSPORT=socket:8`) to spread node shards wider.
pub const DEFAULT_SOCKET_WORKERS: usize = 2;

/// How long the orchestrator waits for all workers to connect before
/// declaring the spawn failed.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// True multi-process simulation: the orchestrator spawns `cc-clique-node`
/// worker processes, each simulating a contiguous shard of destination
/// nodes, and ships every round's traffic to them over a unix domain
/// socket. A worker's shard is one contiguous range of the round's
/// [`LinkSlab`] and crosses the socket as **one** length-prefixed
/// [`Frame::Shard`], encoded straight from the slab's slices. Each worker
/// checks the shard against its assignment, computes its share of the
/// per-link accounting from the shard's length table, echoes the shard as
/// one frame — the orchestrator appends it to the delivered slab whole —
/// and closes the round with a **round-commit token** ([`Frame::Commit`])
/// carrying the epoch and the words charged on every owned link as a dense
/// table; the barrier completes only when every worker has committed the
/// epoch, so a lost or reordered round fails loudly.
///
/// Broadcast slabs cross the socket once per worker (real traffic, counted
/// by the workers); the delivered broadcast lanes are reassembled from the
/// orchestrator's copy of the slabs rather than echoed back, exactly as a
/// distributed deployment would avoid returning immutable shared data to
/// the node that published it.
///
/// The worker binary is located via the `CC_NODE_BIN` environment variable,
/// next to the current executable, or in the build's target directory.
#[derive(Debug)]
pub struct SocketTransport {
    pending: Pending,
    epoch: u64,
    workers: Vec<Worker>,
    socket_path: PathBuf,
    /// Encoded payload/broadcast bytes shipped through this orchestrator —
    /// on the star topology, all of the round traffic.
    orchestrator_bytes: u64,
}

#[derive(Debug)]
struct Worker {
    child: Child,
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    /// Destination shard `[lo, hi)` this worker simulates.
    lo: usize,
    hi: usize,
}

impl StarWorker for Worker {
    fn shard(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    fn ship(&mut self, batch: &[u8]) {
        self.writer
            .write_all(batch)
            .and_then(|()| self.writer.flush())
            .expect("ship round batch to worker");
    }

    fn next_frame(&mut self) -> Frame {
        read_frame(&mut self.reader).expect("read worker round")
    }
}

impl SocketTransport {
    /// Spawns `workers` `cc-clique-node` processes (`0` means
    /// [`DEFAULT_SOCKET_WORKERS`], always clamped to `n`) and connects them
    /// over a fresh unix socket.
    ///
    /// # Panics
    ///
    /// Panics if the worker binary cannot be found or the processes fail to
    /// connect — a broken multi-process setup must fail loudly, not degrade
    /// into a different backend.
    #[must_use]
    pub fn new(n: usize, workers: usize) -> Self {
        let w = if workers == 0 {
            DEFAULT_SOCKET_WORKERS
        } else {
            workers
        }
        .clamp(1, n);
        let socket_path = fresh_socket_path();
        let listener = UnixListener::bind(&socket_path)
            .unwrap_or_else(|e| panic!("bind {}: {e}", socket_path.display()));
        listener
            .set_nonblocking(true)
            .expect("non-blocking accept loop");
        let bin = node_binary();

        // Workers inherit the orchestrator's trace level through argv (the
        // spawn-time analogue of the TCP backend's `Frame::Assign` field),
        // so a traced run captures worker-side events without relying on
        // the child re-reading `CC_TRACE` from the environment.
        let trace = cc_telemetry::global().level().name();
        let mut children = Vec::with_capacity(w);
        for worker in 0..w {
            let (lo, hi) = shard(n, w, worker);
            let child = Command::new(&bin)
                .arg(&socket_path)
                .args([
                    worker.to_string(),
                    lo.to_string(),
                    (hi - lo).to_string(),
                    n.to_string(),
                    trace.to_string(),
                ])
                .spawn()
                .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
            children.push(Some(child));
        }

        // Workers connect in arbitrary order and identify themselves with a
        // Hello frame.
        let mut slots: Vec<Option<Worker>> = (0..w).map(|_| None).collect();
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        for _ in 0..w {
            let stream = accept_one(&listener, &mut children, deadline);
            stream
                .set_nonblocking(false)
                .expect("blocking worker stream");
            let mut reader = BufReader::new(stream.try_clone().expect("clone worker stream"));
            let writer = BufWriter::new(stream);
            let worker = match read_frame(&mut reader).expect("worker greeting") {
                Frame::Hello { worker } => worker as usize,
                other => panic!("expected Hello from worker, got {other:?}"),
            };
            let (lo, hi) = shard(n, w, worker);
            assert!(slots[worker].is_none(), "worker {worker} connected twice");
            slots[worker] = Some(Worker {
                child: children[worker].take().expect("child handle"),
                reader,
                writer,
                lo,
                hi,
            });
        }

        Self {
            pending: Pending::new(n),
            epoch: 0,
            workers: slots
                .into_iter()
                .map(|s| s.expect("every worker connected"))
                .collect(),
            socket_path,
            orchestrator_bytes: 0,
        }
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        "socket"
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
            "socket",
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

    fn orchestrator_bytes(&self) -> u64 {
        self.orchestrator_bytes
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for wk in &mut self.workers {
            let _ = write_frame(&mut wk.writer, &Frame::Shutdown);
            let _ = wk.writer.flush();
        }
        // Workers flush any buffered telemetry as their last frames before
        // exiting; drain each stream to EOF so those snapshots land in the
        // merged capture.
        for wk in &mut self.workers {
            while let Ok(frame) = read_frame(&mut wk.reader) {
                if let Frame::Telemetry { worker, lines } = frame {
                    cc_telemetry::global().merge_worker(worker, &lines);
                }
            }
        }
        for wk in &mut self.workers {
            let _ = wk.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

/// The contiguous destination shard `[lo, hi)` of `worker` among `w`
/// workers over `n` nodes.
pub(crate) fn shard(n: usize, w: usize, worker: usize) -> (usize, usize) {
    (worker * n / w, (worker + 1) * n / w)
}

fn fresh_socket_path() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cc-clique-{}-{id}.sock", std::process::id()))
}

/// Locates the `cc-clique-node` worker binary (see
/// [`find_worker_binary`]).
fn node_binary() -> PathBuf {
    find_worker_binary(&["cc-clique-node"])
}

/// Locates a worker binary by trying each candidate `names` entry: the
/// `CC_NODE_BIN` override first, then next to (or one/two levels above) the
/// current executable — which covers installed binaries, test executables
/// in `target/<profile>/deps`, and examples in `target/<profile>/examples`
/// — then the build-time target directory baked in by `build.rs` (which
/// covers doctests, whose executables live in temporary directories).
/// Earlier `names` win over later ones, so a registry-rich facade binary
/// can shadow the builtin-only fallback.
pub(crate) fn find_worker_binary(names: &[&str]) -> PathBuf {
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

/// Accepts one worker connection, polling so that a worker that died before
/// connecting (bad binary, crash on startup) is reported instead of hanging
/// the orchestrator forever.
fn accept_one(
    listener: &UnixListener,
    children: &mut [Option<Child>],
    deadline: Instant,
) -> UnixStream {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                for (i, child) in children.iter_mut().enumerate() {
                    if let Some(c) = child {
                        if let Ok(Some(status)) = c.try_wait() {
                            panic!("cc-clique-node worker {i} exited before connecting: {status}");
                        }
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "cc-clique-node workers did not connect within {ACCEPT_DEADLINE:?}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("accept worker connection: {e}"),
        }
    }
}

/// The `cc-clique-node` worker process body: connect to the orchestrator,
/// greet, then serve star rounds — take the owned destination shard as one
/// frame, account its links, echo it whole, and commit the epoch with the
/// dense load table — until told to shut down.
///
/// `lo` is the first owned destination, `count` the shard width, `n` the
/// clique size. `trace` is the orchestrator-forwarded `CC_TRACE` level
/// name; when it enables capture, the worker buffers its event stream in a
/// [`cc_telemetry::WireSink`] and ships snapshots back ahead of each
/// round-commit token ([`Frame::Telemetry`]).
pub fn worker_main(
    socket: &std::path::Path,
    worker: u32,
    lo: usize,
    count: usize,
    n: usize,
    trace: &str,
) -> io::Result<()> {
    let wire = crate::tcp::install_wire_sink(trace);
    let stream = UnixStream::connect(socket)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &Frame::Hello { worker })?;
    writer.flush()?;

    let mut epoch = 0u64;
    loop {
        match read_frame(&mut reader)? {
            Frame::Shutdown => {
                // Final telemetry flush: whatever the sink buffered since
                // the last commit travels as the worker's last frames
                // before exit.
                let mut batch = Vec::new();
                crate::tcp::push_telemetry(&mut batch, worker, wire.as_deref());
                if !batch.is_empty() {
                    writer.write_all(&batch)?;
                    writer.flush()?;
                }
                return Ok(());
            }
            first => {
                epoch = star::serve_round(
                    "socket",
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
