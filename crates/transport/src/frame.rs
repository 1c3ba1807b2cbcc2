//! The wire format shared by every non-shared-memory backend.
//!
//! A frame is a self-describing unit of transport traffic: payload words for
//! one link, a worker's whole destination shard of a round, a broadcast
//! slab, a round delimiter, a worker greeting, or a round-commit token. On
//! byte streams (unix sockets, TCP) frames travel length-prefixed (`u32`
//! little-endian byte count, then the encoded frame), so one codec — and one
//! set of round-trip property tests — covers everything that leaves shared
//! memory.
//!
//! All integers are little-endian. [`Word`]s are transmitted verbatim as 8
//! bytes, so the full 64-bit width survives the wire (property-tested with
//! `Word::MAX`).

use cc_runtime::Word;
use std::fmt;
use std::io::{self, Read, Write};

/// Hard upper bound on one frame's encoded size (1 GiB). A length prefix
/// beyond this is treated as stream corruption rather than honoured with an
/// allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// One unit of transport traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Worker → parent greeting identifying the connecting worker process.
    Hello {
        /// Index of the worker in the orchestrator's spawn order.
        worker: u32,
    },
    /// Unicast payload for the `(src, dst)` link in round `epoch`. Words
    /// are in send order; several payload frames for one link concatenate.
    /// No fabric sends it — rounds move as [`Frame::Shard`]s; kept for the
    /// `transport.encode_ns_per_word.*` probe until a `[benchmark]` PR
    /// repoints it at [`Frame::Shard`].
    Payload {
        /// Round this payload belongs to.
        epoch: u64,
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// The payload words, in send order.
        words: Vec<Word>,
    },
    /// One broadcast slab from `src` in round `epoch`: delivered to every
    /// node (the sender included), charged on each `src → dst` link with
    /// `dst ≠ src`.
    Bcast {
        /// Round this slab belongs to.
        epoch: u64,
        /// Broadcasting node.
        src: u32,
        /// The slab words.
        words: Vec<Word>,
    },
    /// Round delimiter: all of round `epoch`'s traffic has been sent. An
    /// empty round is a `RoundEnd` with no preceding payload frames.
    RoundEnd {
        /// The round being closed.
        epoch: u64,
    },
    /// Round-commit token: the sender has delivered round `epoch` and
    /// reports the words it charged on every link into its destination
    /// shard, as a dense table laid out like the shard itself
    /// (`loads[(dst - lo) * n + src]`; self-links hold `0`). The barrier
    /// rendezvous completes when every worker's commit for the epoch has
    /// been collected.
    Commit {
        /// The round being committed.
        epoch: u64,
        /// Charged words per owned link, in link order.
        loads: Vec<u32>,
    },
    /// Orderly teardown: the peer should exit its receive loop.
    Shutdown,
    /// Orchestrator → worker shard assignment: the worker owns nodes
    /// `lo..lo + count` of an `n`-node clique. Sent once at setup.
    Assign {
        /// Index of the worker in the orchestrator's spawn order.
        worker: u32,
        /// First owned node.
        lo: u32,
        /// Number of owned nodes.
        count: u32,
        /// Clique size.
        n: u32,
        /// Orchestrator-forwarded `CC_TRACE` level name (`"off"`,
        /// `"summary"`, `"rounds"`, `"full"`), so remote workers inherit
        /// the trace level without sharing the orchestrator's environment.
        trace: String,
    },
    /// Worker → orchestrator: the address (`host:port`) the worker's peer
    /// listener is bound to, for the orchestrator's routing table; empty
    /// when the worker bound none (unix sockets).
    PeerAddr {
        /// The reporting worker.
        worker: u32,
        /// The worker's peer-listener address.
        addr: String,
    },
    /// Orchestrator → worker routing table: `addrs[w]` is worker `w`'s
    /// peer-listener address. Workers dial each other directly from this.
    Peers {
        /// Peer-listener addresses, indexed by worker.
        addrs: Vec<String>,
    },
    /// One node program's serialized state. Orchestrator → worker at
    /// resident setup (ship the shard), worker → orchestrator at resident
    /// teardown (collect finals).
    Program {
        /// The node the state belongs to.
        node: u32,
        /// The program's wire state ([`cc_runtime::WireProgram`]).
        state: Vec<Word>,
    },
    /// Orchestrator → workers: begin a program-resident session at `epoch`
    /// running programs of the named registered kind. Followed by one
    /// [`Frame::Program`] per owned node and a [`Frame::RoundEnd`].
    ResidentStart {
        /// Barrier epoch the session's first round will commit.
        epoch: u64,
        /// Registered program kind ([`cc_runtime::ResidentRegistry`]).
        kind: String,
    },
    /// Worker → orchestrator: one resident round is done — the worker
    /// stepped its shard, exchanged shards peer-to-peer, and accounted the
    /// words charged on every link into its owned destinations, as the
    /// dense table [`Frame::Commit`] carries
    /// (`loads[(dst - lo) * n + src]`; self-links hold `0`).
    ResidentDone {
        /// The round being committed.
        epoch: u64,
        /// Owned programs still live after stepping this round.
        live: u32,
        /// Encoded payload bytes this worker sent directly to peers this
        /// round (bytes that did **not** transit the orchestrator).
        peer_bytes: u64,
        /// Charged words per owned link, in link order.
        loads: Vec<u32>,
    },
    /// Orchestrator → workers: the resident barrier for `epoch` is
    /// released; `live` is the clique-wide live count after the round.
    /// `live == 0` ends the session (workers return their finals).
    Release {
        /// The round being released.
        epoch: u64,
        /// Clique-wide live programs after this round.
        live: u32,
    },
    /// Worker → orchestrator telemetry snapshot: event lines drained from
    /// the worker's `WireSink` (one `cc_telemetry::event_json` object per
    /// line), piggybacked on commit/teardown traffic so distributed
    /// capture adds no sockets and no barrier semantics. Never sent when
    /// the forwarded trace level is `off`.
    Telemetry {
        /// The reporting worker.
        worker: u32,
        /// Serialized event lines, in emission order.
        lines: Vec<String>,
    },
    /// One worker's whole destination shard of round `epoch`'s unicast
    /// traffic — the links into destinations `lo..lo + count` of a
    /// [`crate::LinkSlab`], which are contiguous in it — as a single frame:
    /// the `count · n` per-link word counts in link order
    /// (`lens[(dst - lo) * n + src]`), then every link's words end to end.
    /// On the star: orchestrator → worker to ship the shard, worker →
    /// orchestrator to echo it. On the peer mesh: worker → worker, what the
    /// sender's own nodes sent into the receiver's shard. On the wire the
    /// word count is the sum of `lens`, so a frame whose table and words
    /// disagree does not decode.
    Shard {
        /// Round this shard belongs to.
        epoch: u64,
        /// First destination of the shard.
        lo: u32,
        /// Words on each link into the shard, in link order.
        lens: Vec<u32>,
        /// The links' words, concatenated in link order.
        words: Vec<Word>,
    },
}

/// Decode-side failure: the bytes are not a well-formed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the frame was complete.
    Truncated,
    /// Bytes remained after a complete frame was decoded.
    Trailing(usize),
    /// Unknown frame tag byte.
    BadTag(u8),
    /// A declared length exceeds [`MAX_FRAME_BYTES`].
    Oversized(u64),
    /// A string field was not valid UTF-8.
    BadString,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Trailing(n) => write!(f, "{n} trailing bytes after frame"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            FrameError::Oversized(n) => write!(f, "declared length {n} exceeds frame cap"),
            FrameError::BadString => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

const TAG_HELLO: u8 = 0;
const TAG_PAYLOAD: u8 = 1;
const TAG_BCAST: u8 = 2;
const TAG_ROUND_END: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_ASSIGN: u8 = 6;
const TAG_PEER_ADDR: u8 = 7;
const TAG_PEERS: u8 = 8;
const TAG_PROGRAM: u8 = 9;
const TAG_RESIDENT_START: u8 = 10;
const TAG_RESIDENT_DONE: u8 = 11;
const TAG_RELEASE: u8 = 12;
const TAG_TELEMETRY: u8 = 13;
const TAG_SHARD: u8 = 14;

impl Frame {
    /// Encodes the frame body (no length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        match self {
            Frame::Hello { worker } => {
                buf.push(TAG_HELLO);
                buf.extend_from_slice(&worker.to_le_bytes());
            }
            Frame::Payload {
                epoch,
                src,
                dst,
                words,
            } => put_payload(&mut buf, *epoch, *src, *dst, words),
            Frame::Bcast { epoch, src, words } => put_bcast(&mut buf, *epoch, *src, words),
            Frame::RoundEnd { epoch } => {
                buf.push(TAG_ROUND_END);
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
            Frame::Commit { epoch, loads } => {
                buf.push(TAG_COMMIT);
                buf.extend_from_slice(&epoch.to_le_bytes());
                put_table(&mut buf, loads.iter().copied());
            }
            Frame::Shutdown => buf.push(TAG_SHUTDOWN),
            Frame::Assign {
                worker,
                lo,
                count,
                n,
                trace,
            } => {
                buf.push(TAG_ASSIGN);
                buf.extend_from_slice(&worker.to_le_bytes());
                buf.extend_from_slice(&lo.to_le_bytes());
                buf.extend_from_slice(&count.to_le_bytes());
                buf.extend_from_slice(&n.to_le_bytes());
                put_string(&mut buf, trace);
            }
            Frame::PeerAddr { worker, addr } => {
                buf.push(TAG_PEER_ADDR);
                buf.extend_from_slice(&worker.to_le_bytes());
                put_string(&mut buf, addr);
            }
            Frame::Peers { addrs } => {
                buf.push(TAG_PEERS);
                buf.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
                for addr in addrs {
                    put_string(&mut buf, addr);
                }
            }
            Frame::Program { node, state } => {
                buf.push(TAG_PROGRAM);
                buf.extend_from_slice(&node.to_le_bytes());
                put_words(&mut buf, state);
            }
            Frame::ResidentStart { epoch, kind } => {
                buf.push(TAG_RESIDENT_START);
                buf.extend_from_slice(&epoch.to_le_bytes());
                put_string(&mut buf, kind);
            }
            Frame::ResidentDone {
                epoch,
                live,
                peer_bytes,
                loads,
            } => {
                buf.push(TAG_RESIDENT_DONE);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&live.to_le_bytes());
                buf.extend_from_slice(&peer_bytes.to_le_bytes());
                put_table(&mut buf, loads.iter().copied());
            }
            Frame::Release { epoch, live } => {
                buf.push(TAG_RELEASE);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&live.to_le_bytes());
            }
            Frame::Telemetry { worker, lines } => {
                buf.push(TAG_TELEMETRY);
                buf.extend_from_slice(&worker.to_le_bytes());
                buf.extend_from_slice(&(lines.len() as u32).to_le_bytes());
                for line in lines {
                    put_string(&mut buf, line);
                }
            }
            Frame::Shard {
                epoch,
                lo,
                lens,
                words,
            } => put_shard(&mut buf, *epoch, *lo, lens.iter().copied(), words),
        }
        buf
    }

    /// Decodes one frame body, requiring the buffer to contain exactly one
    /// frame (no trailing bytes).
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        let mut r = Reader { bytes, pos: 0 };
        let frame = match r.u8()? {
            TAG_HELLO => Frame::Hello { worker: r.u32()? },
            TAG_PAYLOAD => Frame::Payload {
                epoch: r.u64()?,
                src: r.u32()?,
                dst: r.u32()?,
                words: r.words()?,
            },
            TAG_BCAST => Frame::Bcast {
                epoch: r.u64()?,
                src: r.u32()?,
                words: r.words()?,
            },
            TAG_ROUND_END => Frame::RoundEnd { epoch: r.u64()? },
            TAG_COMMIT => Frame::Commit {
                epoch: r.u64()?,
                loads: r.table()?,
            },
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_ASSIGN => Frame::Assign {
                worker: r.u32()?,
                lo: r.u32()?,
                count: r.u32()?,
                n: r.u32()?,
                trace: r.string()?,
            },
            TAG_PEER_ADDR => Frame::PeerAddr {
                worker: r.u32()?,
                addr: r.string()?,
            },
            TAG_PEERS => {
                let n = r.u32()? as usize;
                if n > MAX_FRAME_BYTES / 4 {
                    return Err(FrameError::Oversized(n as u64));
                }
                let mut addrs = Vec::with_capacity(n.min(r.remaining() / 4));
                for _ in 0..n {
                    addrs.push(r.string()?);
                }
                Frame::Peers { addrs }
            }
            TAG_PROGRAM => Frame::Program {
                node: r.u32()?,
                state: r.words()?,
            },
            TAG_RESIDENT_START => Frame::ResidentStart {
                epoch: r.u64()?,
                kind: r.string()?,
            },
            TAG_RESIDENT_DONE => Frame::ResidentDone {
                epoch: r.u64()?,
                live: r.u32()?,
                peer_bytes: r.u64()?,
                loads: r.table()?,
            },
            TAG_RELEASE => Frame::Release {
                epoch: r.u64()?,
                live: r.u32()?,
            },
            TAG_TELEMETRY => {
                let worker = r.u32()?;
                let n = r.u32()? as usize;
                if n > MAX_FRAME_BYTES / 4 {
                    return Err(FrameError::Oversized(n as u64));
                }
                let mut lines = Vec::with_capacity(n.min(r.remaining() / 4));
                for _ in 0..n {
                    lines.push(r.string()?);
                }
                Frame::Telemetry { worker, lines }
            }
            TAG_SHARD => {
                let epoch = r.u64()?;
                let lo = r.u32()?;
                let lens = r.table()?;
                // The table declares the word count; both are checked
                // against the bytes actually present before `words` is sized.
                let total: u64 = lens.iter().map(|&len| u64::from(len)).sum();
                if total > (MAX_FRAME_BYTES / 8) as u64 {
                    return Err(FrameError::Oversized(total));
                }
                let words = r.words_exact(total as usize)?;
                Frame::Shard {
                    epoch,
                    lo,
                    lens,
                    words,
                }
            }
            t => return Err(FrameError::BadTag(t)),
        };
        if r.remaining() > 0 {
            return Err(FrameError::Trailing(r.remaining()));
        }
        Ok(frame)
    }
}

fn put_payload(buf: &mut Vec<u8>, epoch: u64, src: u32, dst: u32, words: &[Word]) {
    buf.push(TAG_PAYLOAD);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&src.to_le_bytes());
    buf.extend_from_slice(&dst.to_le_bytes());
    put_words(buf, words);
}

fn put_bcast(buf: &mut Vec<u8>, epoch: u64, src: u32, words: &[Word]) {
    buf.push(TAG_BCAST);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&src.to_le_bytes());
    put_words(buf, words);
}

fn put_shard(
    buf: &mut Vec<u8>,
    epoch: u64,
    lo: u32,
    lens: impl ExactSizeIterator<Item = u32>,
    words: &[Word],
) {
    buf.push(TAG_SHARD);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&lo.to_le_bytes());
    put_table(buf, lens);
    put_raw_words(buf, words);
}

/// A dense `u32` table: entry count, then the entries.
fn put_table(buf: &mut Vec<u8>, table: impl ExactSizeIterator<Item = u32>) {
    let len = u32::try_from(table.len()).expect("table length fits the wire's u32");
    buf.extend_from_slice(&len.to_le_bytes());
    let at = buf.len();
    buf.resize(at + 4 * table.len(), 0);
    for (bytes, entry) in buf[at..].chunks_exact_mut(4).zip(table) {
        bytes.copy_from_slice(&entry.to_le_bytes());
    }
}

fn put_words(buf: &mut Vec<u8>, words: &[Word]) {
    buf.extend_from_slice(&(words.len() as u32).to_le_bytes());
    put_raw_words(buf, words);
}

fn put_raw_words(buf: &mut Vec<u8>, words: &[Word]) {
    let at = buf.len();
    buf.resize(at + 8 * words.len(), 0);
    for (bytes, w) in buf[at..].chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized(n as u64));
        }
        let bytes = self.take(n)?.to_vec();
        String::from_utf8(bytes).map_err(|_| FrameError::BadString)
    }

    fn words(&mut self) -> Result<Vec<Word>, FrameError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(8) > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized(n as u64));
        }
        self.words_exact(n)
    }

    /// `n` words (`n * 8` must not overflow: callers bound `n` by the frame
    /// cap first). Nothing is allocated unless all of them are present.
    fn words_exact(&mut self, n: usize) -> Result<Vec<Word>, FrameError> {
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| Word::from_le_bytes(w.try_into().expect("8 bytes")))
            .collect())
    }

    /// A dense `u32` table ([`put_table`]), sized only once the declared
    /// entry count is known to fit the remaining bytes.
    fn table(&mut self) -> Result<Vec<u32>, FrameError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(4) > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized(n as u64));
        }
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|e| u32::from_le_bytes(e.try_into().expect("4 bytes")))
            .collect())
    }
}

/// Writes one length-prefixed frame to a byte stream. The caller flushes
/// when the round's traffic is complete.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let body = frame.encode();
    assert!(body.len() <= MAX_FRAME_BYTES, "frame exceeds wire cap");
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)
}

/// Appends one length-prefixed frame to a batch buffer, producing exactly
/// the bytes [`write_frame`] would put on the wire. Batching lets a sender
/// coalesce a whole round's frames into **one** buffer and hand the kernel
/// a single write — the writev-style syscall cut of the socket backend —
/// while the receive side keeps reading frame by frame, none the wiser.
pub fn push_frame(batch: &mut Vec<u8>, frame: &Frame) {
    push_frame_bytes(batch, &frame.encode());
}

/// Appends an already-encoded frame body (from [`Frame::encode`]) to a
/// batch buffer with its length prefix. For senders that encode a frame
/// once and fan it out to several receivers (e.g. broadcast slabs shipped
/// to every worker).
pub fn push_frame_bytes(batch: &mut Vec<u8>, body: &[u8]) {
    assert!(body.len() <= MAX_FRAME_BYTES, "frame exceeds wire cap");
    batch.extend_from_slice(&(body.len() as u32).to_le_bytes());
    batch.extend_from_slice(body);
}

/// Appends one length-prefixed [`Frame::Shard`] to a batch buffer, encoded
/// straight from a per-link length table and the shard's word slice —
/// exactly the bytes [`push_frame`] produces for the equivalent frame. This
/// is how a worker's contiguous range of a [`crate::LinkSlab`] goes onto the
/// wire, and how the worker echoes it: one frame, no per-link copies.
///
/// `lens` must sum to `words.len()`; the receiver rejects the frame
/// otherwise.
pub fn push_shard_frame(
    batch: &mut Vec<u8>,
    epoch: u64,
    lo: u32,
    lens: impl ExactSizeIterator<Item = u32>,
    words: &[Word],
) {
    push_prefixed(batch, |body| put_shard(body, epoch, lo, lens, words));
}

/// Appends one length-prefixed [`Frame::Bcast`] to a batch buffer, encoded
/// straight from the slab's word slice — exactly the bytes [`push_frame`]
/// produces for the equivalent frame.
pub fn push_bcast_frame(batch: &mut Vec<u8>, epoch: u64, src: u32, words: &[Word]) {
    push_prefixed(batch, |body| put_bcast(body, epoch, src, words));
}

/// Appends what `put` encodes as one length-prefixed frame: the prefix is
/// reserved first and filled in once the body's size is known.
fn push_prefixed(batch: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    let at = batch.len();
    batch.extend_from_slice(&[0; 4]);
    put(batch);
    let len = batch.len() - at - 4;
    assert!(len <= MAX_FRAME_BYTES, "frame exceeds wire cap");
    batch[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Encodes a frame sequence as one contiguous length-prefixed byte batch —
/// bit-identical to writing each frame with [`write_frame`] in order
/// (property-tested in `prop_frames.rs`), so batched and unbatched senders
/// produce the same byte stream.
#[must_use]
pub fn encode_frame_batch(frames: &[Frame]) -> Vec<u8> {
    let mut batch = Vec::new();
    for frame in frames {
        push_frame(&mut batch, frame);
    }
    batch
}

/// The most [`read_frame`] allocates for a body before any of it has
/// arrived. A larger frame is read in steps no bigger than what has already
/// come in, so a length prefix only ever costs memory in proportion to the
/// bytes the stream actually delivered.
const READ_STEP_BYTES: usize = 64 << 10;

/// Reads one length-prefixed frame from a byte stream. A stream that ends
/// before the declared length fails with [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len as u64).into());
    }
    let mut body = Vec::new();
    while body.len() < len {
        let at = body.len();
        let step = (len - at).min(at.max(READ_STEP_BYTES));
        body.resize(at + step, 0);
        r.read_exact(&mut body[at..])?;
    }
    Frame::decode(&body).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn codec_round_trips_each_variant() {
        let frames = [
            Frame::Hello { worker: 7 },
            Frame::Payload {
                epoch: 3,
                src: 1,
                dst: 2,
                words: vec![0, 1, Word::MAX],
            },
            Frame::Bcast {
                epoch: u64::MAX,
                src: 0,
                words: vec![],
            },
            Frame::RoundEnd { epoch: 0 },
            Frame::Commit {
                epoch: 9,
                loads: vec![0, 5, u32::MAX],
            },
            Frame::Shutdown,
            Frame::Assign {
                worker: 2,
                lo: 8,
                count: 4,
                n: 16,
                trace: "full".to_string(),
            },
            Frame::PeerAddr {
                worker: 1,
                addr: "127.0.0.1:4821".to_string(),
            },
            Frame::Peers {
                addrs: vec!["127.0.0.1:1".to_string(), String::new()],
            },
            Frame::Program {
                node: 5,
                state: vec![Word::MAX, 0, 7],
            },
            Frame::ResidentStart {
                epoch: 11,
                kind: "cc.triangle".to_string(),
            },
            Frame::ResidentDone {
                epoch: 11,
                live: 3,
                peer_bytes: u64::MAX,
                loads: vec![0, 9, u32::MAX],
            },
            Frame::Release { epoch: 11, live: 0 },
            Frame::Telemetry {
                worker: 1,
                lines: vec![
                    "{\"event\":\"counter\",\"name\":\"c\",\"delta\":1}".to_string(),
                    String::new(),
                ],
            },
            Frame::Shard {
                epoch: 4,
                lo: 2,
                lens: vec![0, 2, 0, 1],
                words: vec![Word::MAX, 0, 7],
            },
        ];
        for f in frames {
            assert_eq!(Frame::decode(&f.encode()), Ok(f.clone()), "{f:?}");
        }
    }

    #[test]
    fn strings_must_be_utf8() {
        let mut bytes = Frame::PeerAddr {
            worker: 0,
            addr: "ab".to_string(),
        }
        .encode();
        let at = bytes.len() - 2;
        bytes[at] = 0xff; // invalid UTF-8 continuation
        bytes[at + 1] = 0xfe;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadString));
    }

    #[test]
    fn stream_round_trips_a_frame_sequence() {
        let frames = vec![
            Frame::RoundEnd { epoch: 0 }, // an empty round is just its delimiter
            Frame::Payload {
                epoch: 1,
                src: 0,
                dst: 3,
                words: vec![Word::MAX, 0, 42],
            },
            Frame::RoundEnd { epoch: 1 },
            Frame::Commit {
                epoch: 1,
                loads: vec![3, 0, 0, 0],
            },
            Frame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
    }

    #[test]
    fn decode_rejects_malformed_inputs() {
        assert_eq!(Frame::decode(&[]), Err(FrameError::Truncated));
        assert_eq!(Frame::decode(&[99]), Err(FrameError::BadTag(99)));
        // Truncated payload: declares 2 words, carries none.
        let mut bytes = Frame::Payload {
            epoch: 1,
            src: 0,
            dst: 1,
            words: vec![1, 2],
        }
        .encode();
        bytes.truncate(bytes.len() - 8);
        assert_eq!(Frame::decode(&bytes), Err(FrameError::Truncated));
        // Trailing garbage after a complete frame.
        let mut bytes = Frame::RoundEnd { epoch: 5 }.encode();
        bytes.push(0);
        assert_eq!(Frame::decode(&bytes), Err(FrameError::Trailing(1)));
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A reader that records the largest buffer it was ever asked to fill.
    struct Metered<R> {
        inner: R,
        largest_request: usize,
    }

    impl<R: Read> Read for Metered<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_request = self.largest_request.max(buf.len());
            self.inner.read(buf)
        }
    }

    #[test]
    fn a_lying_length_prefix_on_a_short_stream_is_an_eof_not_an_allocation() {
        // The largest prefix the cap admits, followed by three bytes: the
        // body buffer may only grow with what the stream delivers.
        let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[TAG_ROUND_END, 0, 0]);
        let mut stream = Metered {
            inner: Cursor::new(wire),
            largest_request: 0,
        };
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(stream.largest_request <= READ_STEP_BYTES);
    }

    #[test]
    fn frames_larger_than_one_read_step_arrive_whole() {
        let frame = Frame::Program {
            node: 1,
            state: (0..5 * READ_STEP_BYTES as Word / 8).collect(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        write_frame(&mut wire, &Frame::Shutdown).unwrap();
        let mut stream = Metered {
            inner: Cursor::new(wire),
            largest_request: 0,
        };
        assert_eq!(read_frame(&mut stream).unwrap(), frame);
        assert_eq!(read_frame(&mut stream).unwrap(), Frame::Shutdown);
        assert!(stream.largest_request < 4 * READ_STEP_BYTES);
    }
}
