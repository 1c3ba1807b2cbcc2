//! Property tests for the wire format: whatever a backend frames must
//! decode back bit-identically — including maximum-width words, empty
//! payloads, and empty rounds — so a codec bug can never silently corrupt
//! a product. Corrupted bytes must fail to decode rather than alias a
//! different frame, and hostile bytes must fail typed, never panic.

use cc_transport::{
    encode_frame_batch, push_bcast_frame, push_frame, push_frame_bytes, push_shard_frame,
    read_frame, write_frame, Frame, FrameError,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{Cursor, Read};

/// Word strategy biased toward the boundary values a codec is most likely
/// to mangle: zero, the maximum, and values whose byte patterns are
/// asymmetric.
fn word() -> BoxedStrategy<u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(u64::from(u32::MAX)),
        Just(1u64 << 63),
        any::<u64>(),
    ]
    .boxed()
}

/// A peer-listener address string as the TCP backend produces them
/// (`host:port` from `TcpListener::local_addr`), plus hostname spellings a
/// multi-host run would feed through `CC_TRANSPORT=tcp:<host>:<port>`.
fn addr() -> BoxedStrategy<String> {
    (any::<u8>(), any::<u8>(), any::<u16>())
        .prop_map(|(a, b, port)| match a % 3 {
            0 => format!("127.0.0.1:{port}"),
            1 => format!("10.{a}.{b}.7:{port}"),
            _ => format!("worker-{b}.cluster.internal:{port}"),
        })
        .boxed()
}

fn frame() -> BoxedStrategy<Frame> {
    let payload = (any::<u64>(), any::<u32>(), any::<u32>(), vec(word(), 0..40))
        .prop_map(|(epoch, src, dst, words)| Frame::Payload {
            epoch,
            src,
            dst,
            words,
        })
        .boxed();
    let bcast = (any::<u64>(), any::<u32>(), vec(word(), 0..40))
        .prop_map(|(epoch, src, words)| Frame::Bcast { epoch, src, words })
        .boxed();
    let commit = (any::<u64>(), vec(table_entry(), 0..40))
        .prop_map(|(epoch, loads)| Frame::Commit { epoch, loads })
        .boxed();
    let shard = (any::<u64>(), any::<u32>(), vec(vec(word(), 0..4), 0..24))
        .prop_map(|(epoch, lo, links)| shard_of(epoch, lo, &links))
        .boxed();
    // Setup / resident-session frames of the TCP backend.
    let assign = (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
    )
        .prop_map(|(worker, lo, count, n, t)| Frame::Assign {
            worker,
            lo,
            count,
            n,
            trace: match t % 4 {
                0 => "off".to_string(),
                1 => "summary".to_string(),
                2 => "rounds".to_string(),
                _ => "full".to_string(),
            },
        })
        .boxed();
    let peer_addr = (any::<u32>(), addr())
        .prop_map(|(worker, addr)| Frame::PeerAddr { worker, addr })
        .boxed();
    let peers = vec(addr(), 0..8)
        .prop_map(|addrs| Frame::Peers { addrs })
        .boxed();
    let program = (any::<u32>(), vec(word(), 0..40))
        .prop_map(|(node, state)| Frame::Program { node, state })
        .boxed();
    let resident_start = (any::<u64>(), any::<u8>())
        .prop_map(|(epoch, k)| Frame::ResidentStart {
            epoch,
            kind: match k % 3 {
                0 => String::new(),
                1 => "cc.echo-ring".to_string(),
                _ => format!("cc.kind-{k}"),
            },
        })
        .boxed();
    let resident_done = (
        any::<u64>(),
        any::<u32>(),
        word(),
        vec(table_entry(), 0..40),
    )
        .prop_map(|(epoch, live, peer_bytes, loads)| Frame::ResidentDone {
            epoch,
            live,
            peer_bytes,
            loads,
        })
        .boxed();
    let release = (any::<u64>(), any::<u32>())
        .prop_map(|(epoch, live)| Frame::Release { epoch, live })
        .boxed();
    // Worker telemetry snapshots: event-json lines plus adversarial
    // strings (empty, unicode, embedded quotes) — the codec ships them
    // opaquely, so any byte sequence must survive.
    let telemetry_line = prop_oneof![
        Just(String::new()),
        Just(r#"{"event":"counter","name":"x","value":1}"#.to_string()),
        vec(any::<u32>(), 0..24)
            .prop_map(|cs| {
                cs.into_iter()
                    .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
                    .collect::<String>()
            })
            .boxed(),
    ]
    .boxed();
    let telemetry = (any::<u32>(), vec(telemetry_line, 0..6))
        .prop_map(|(worker, lines)| Frame::Telemetry { worker, lines })
        .boxed();
    prop_oneof![
        any::<u32>()
            .prop_map(|worker| Frame::Hello { worker })
            .boxed(),
        payload,
        bcast,
        any::<u64>()
            .prop_map(|epoch| Frame::RoundEnd { epoch })
            .boxed(),
        commit,
        Just(Frame::Shutdown).boxed(),
        assign,
        peer_addr,
        peers,
        program,
        resident_start,
        resident_done,
        release,
        telemetry,
        shard,
    ]
    .boxed()
}

/// A commit-table entry: mostly small loads, with the extremes mixed in.
fn table_entry() -> BoxedStrategy<u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()].boxed()
}

/// The shard frame carrying `links` (one word list per link, in link
/// order): the length table and the words laid end to end.
fn shard_of(epoch: u64, lo: u32, links: &[Vec<u64>]) -> Frame {
    Frame::Shard {
        epoch,
        lo,
        lens: links.iter().map(|l| l.len() as u32).collect(),
        words: links.concat(),
    }
}

/// An [`io::Read`] that serves the underlying bytes in prescribed chunk
/// sizes (cycling through `chunks`; a zero entry serves one byte), the way
/// a TCP stream delivers a frame across several `read` calls. The codec's
/// reader must reassemble exactly what a contiguous buffer would give.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    turn: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        Self {
            data,
            pos: 0,
            chunks,
            turn: 0,
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.data.len() {
            return Ok(0);
        }
        let want = self.chunks[self.turn % self.chunks.len()].max(1);
        self.turn += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Reads `count` frames through a [`ChunkedReader`] and asserts the stream
/// is exactly consumed; returns the decoded frames.
fn read_chunked(wire: Vec<u8>, chunks: Vec<usize>, count: usize) -> Vec<Frame> {
    let mut reader = ChunkedReader::new(wire, chunks);
    let frames: Vec<Frame> = (0..count)
        .map(|i| read_frame(&mut reader).unwrap_or_else(|e| panic!("frame {i}: {e}")))
        .collect();
    assert_eq!(reader.pos, reader.data.len(), "stream exactly consumed");
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn every_frame_round_trips_the_codec(f in frame()) {
        let bytes = f.encode();
        prop_assert_eq!(Frame::decode(&bytes), Ok(f));
    }

    #[test]
    fn every_frame_round_trips_the_length_prefixed_stream(frames in vec(frame(), 0..12)) {
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).expect("write to Vec");
        }
        let mut cursor = Cursor::new(wire);
        for f in &frames {
            prop_assert_eq!(&read_frame(&mut cursor).expect("read back"), f);
        }
        // The stream is exactly consumed: no trailing bytes invented.
        prop_assert_eq!(cursor.position(), cursor.get_ref().len() as u64);
    }

    #[test]
    fn batched_frames_are_byte_stream_equivalent(frames in vec(frame(), 0..12)) {
        // The socket backend's syscall cut: a whole round's frames coalesce
        // into one writev-style batch. The receiver must not be able to
        // tell — the batch's bytes are exactly the frame-by-frame stream.
        let mut frame_by_frame = Vec::new();
        for f in &frames {
            write_frame(&mut frame_by_frame, f).expect("write to Vec");
        }
        let batch = encode_frame_batch(&frames);
        prop_assert_eq!(&batch, &frame_by_frame, "batching must not change the byte stream");
        // Pre-encoded bodies (the broadcast fan-out path) batch to the
        // same bytes as whole frames.
        let mut from_bodies = Vec::new();
        for f in &frames {
            push_frame_bytes(&mut from_bodies, &f.encode());
        }
        prop_assert_eq!(&from_bodies, &frame_by_frame);
        // And the batch reads back frame by frame, exactly consumed.
        let mut cursor = Cursor::new(batch);
        for f in &frames {
            prop_assert_eq!(&read_frame(&mut cursor).expect("read from batch"), f);
        }
        prop_assert_eq!(cursor.position(), cursor.get_ref().len() as u64);
    }

    #[test]
    fn slice_encoders_match_the_frame_encoder(
        epoch in any::<u64>(),
        at in any::<u32>(),
        links in vec(vec(word(), 0..4), 0..24),
    ) {
        // The star round never builds a `Frame` to ship a shard or a
        // broadcast slab: it encodes from slab slices. Those bytes must be
        // the frame's own encoding behind its length prefix.
        let shard = shard_of(epoch, at, &links);
        let words = links.concat();
        let bcast = Frame::Bcast { epoch, src: at, words: words.clone() };
        let mut from_frames = Vec::new();
        push_frame(&mut from_frames, &shard);
        push_frame(&mut from_frames, &bcast);
        let mut from_slices = Vec::new();
        push_shard_frame(
            &mut from_slices,
            epoch,
            at,
            links.iter().map(|l| l.len() as u32),
            &words,
        );
        push_bcast_frame(&mut from_slices, epoch, at, &words);
        prop_assert_eq!(&from_slices, &from_frames);
        let mut cursor = Cursor::new(from_slices);
        prop_assert_eq!(read_frame(&mut cursor).expect("shard"), shard);
        prop_assert_eq!(read_frame(&mut cursor).expect("bcast"), bcast);
    }

    #[test]
    fn one_byte_chunks_decode_identically_to_the_contiguous_path(frames in vec(frame(), 0..8)) {
        // The worst TCP delivery: every read returns a single byte, so
        // every length prefix and every multi-byte field straddles reads.
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).expect("write to Vec");
        }
        let contiguous: Vec<Frame> = {
            let mut cursor = Cursor::new(wire.clone());
            (0..frames.len()).map(|_| read_frame(&mut cursor).expect("contiguous")).collect()
        };
        let chunked = read_chunked(wire, vec![1], frames.len());
        prop_assert_eq!(&chunked, &contiguous);
        prop_assert_eq!(&chunked, &frames);
    }

    #[test]
    fn random_chunk_splits_decode_identically_to_the_contiguous_path(
        frames in vec(frame(), 1..8),
        chunks in vec(0usize..48, 1..8),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).expect("write to Vec");
        }
        prop_assert_eq!(&read_chunked(wire, chunks, frames.len()), &frames);
    }

    #[test]
    fn boundary_straddling_splits_decode_identically(f in frame(), lead in 0usize..12) {
        // Force the first read boundary to land inside (or exactly on) the
        // 4-byte length prefix and the leading frame fields, then continue
        // with a co-prime stride so later boundaries straddle the
        // prefix/body seam of the encoding at shifting offsets.
        let mut wire = Vec::new();
        write_frame(&mut wire, &f).expect("write to Vec");
        for stride in [2usize, 3, 5, 7] {
            let chunks = vec![lead, stride];
            prop_assert_eq!(
                &read_chunked(wire.clone(), chunks, 1)[0],
                &f,
                "lead {lead}, stride {stride}"
            );
        }
    }

    #[test]
    fn truncations_never_decode_to_a_different_frame(f in frame(), cut in 0usize..64) {
        let bytes = f.encode();
        if cut > 0 && cut < bytes.len() {
            let truncated = &bytes[..bytes.len() - cut];
            // A truncated encoding must error; decoding it as *some other*
            // valid frame would silently corrupt simulation traffic.
            prop_assert!(Frame::decode(truncated).is_err(), "cut {cut} decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected(f in frame(), junk in vec(any::<u64>(), 1..4)) {
        let mut bytes = f.encode();
        for j in junk {
            bytes.push(j as u8);
        }
        prop_assert!(Frame::decode(&bytes).is_err());
    }
}

#[test]
fn empty_round_is_expressible_and_round_trips() {
    // An empty round on the wire is nothing but its delimiter and commit —
    // there must be no minimum-traffic assumption in the codec.
    let frames = [
        Frame::RoundEnd { epoch: 0 },
        Frame::Commit {
            epoch: 0,
            loads: vec![0; 6],
        },
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
fn every_two_chunk_split_of_a_frame_decodes() {
    // Exhaustive split sweep on a frame exercising strings, loads, and
    // wide scalars: every possible two-read delivery — including splits
    // inside the 4-byte length prefix — must reassemble bit-identically.
    let frames = [
        Frame::ResidentDone {
            epoch: u64::MAX,
            live: 3,
            peer_bytes: 0xDEAD_BEEF,
            loads: vec![0, 9, u32::MAX, 1],
        },
        Frame::Peers {
            addrs: vec![
                "127.0.0.1:4242".into(),
                "worker-1.cluster.internal:9".into(),
            ],
        },
    ];
    for f in frames {
        let mut wire = Vec::new();
        write_frame(&mut wire, &f).unwrap();
        for split in 1..wire.len() {
            let got = read_chunked(wire.clone(), vec![split, wire.len() - split], 1);
            assert_eq!(got[0], f, "split at {split}");
        }
    }
}

#[test]
fn max_width_words_survive_every_lane() {
    // The congested clique charges by the word; a codec that clips the top
    // bits would corrupt wide entries (e.g. packed pairs, INFINITY
    // encodings) only at runtime. Pin the extremes explicitly.
    let f = Frame::Payload {
        epoch: u64::MAX,
        src: u32::MAX,
        dst: 0,
        words: vec![u64::MAX, 0, 1 << 63, u64::from(u32::MAX) + 1],
    };
    assert_eq!(Frame::decode(&f.encode()), Ok(f));
}

#[test]
fn shards_round_trip_at_the_extremes() {
    // Full-width words, empty links between loaded ones, a shard with a
    // table but no words (a worker nothing was sent to), no links at all.
    for links in [
        vec![vec![u64::MAX, 0], vec![], vec![1 << 63], vec![]],
        vec![vec![]; 14],
        vec![],
    ] {
        let f = shard_of(u64::MAX, u32::MAX, &links);
        assert_eq!(Frame::decode(&f.encode()), Ok(f));
    }
    let commit = Frame::Commit {
        epoch: u64::MAX,
        loads: vec![0, u32::MAX, 0, 1],
    };
    assert_eq!(Frame::decode(&commit.encode()), Ok(commit));
    // The resident commit: an all-zero table (an idle round) and none.
    for loads in [vec![0; 14], vec![]] {
        let done = Frame::ResidentDone {
            epoch: u64::MAX,
            live: u32::MAX,
            peer_bytes: u64::MAX,
            loads,
        };
        assert_eq!(Frame::decode(&done.encode()), Ok(done));
    }
}

/// Byte offset of the table's entry count in a shard body (tag, epoch, lo),
/// in a commit body (tag, epoch) and in a resident commit body (tag, epoch,
/// live, peer bytes).
const SHARD_COUNT_AT: usize = 1 + 8 + 4;
const COMMIT_COUNT_AT: usize = 1 + 8;
const RESIDENT_DONE_COUNT_AT: usize = 1 + 8 + 4 + 8;

#[test]
fn hostile_shard_and_commit_bytes_fail_typed() {
    let shard = shard_of(7, 2, &[vec![1, 2], vec![], vec![3]]).encode();
    let commit = Frame::Commit {
        epoch: 7,
        loads: vec![0, 5, 9],
    }
    .encode();
    let done = Frame::ResidentDone {
        epoch: 7,
        live: 2,
        peer_bytes: 4096,
        loads: vec![0, 5, 9],
    }
    .encode();

    // Truncated at every cut.
    for body in [&shard, &commit, &done] {
        for cut in 0..body.len() {
            assert_eq!(
                Frame::decode(&body[..cut]),
                Err(FrameError::Truncated),
                "cut at {cut}"
            );
        }
    }

    let patched = |body: &[u8], at: usize, value: u32| {
        let mut bytes = body.to_vec();
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        bytes
    };

    // A length table whose sum is not the number of words that follow.
    let first_len = SHARD_COUNT_AT + 4;
    assert_eq!(
        Frame::decode(&patched(&shard, first_len, 3)),
        Err(FrameError::Truncated)
    );
    assert_eq!(
        Frame::decode(&patched(&shard, first_len, 1)),
        Err(FrameError::Trailing(8))
    );
    assert_eq!(
        Frame::decode(&patched(&shard, first_len, u32::MAX)),
        Err(FrameError::Oversized(u64::from(u32::MAX) + 1))
    );

    // A declared entry count larger than the body, and one beyond the
    // frame cap: neither may size a vector.
    for (body, at) in [
        (&shard, SHARD_COUNT_AT),
        (&commit, COMMIT_COUNT_AT),
        (&done, RESIDENT_DONE_COUNT_AT),
    ] {
        assert_eq!(
            Frame::decode(&patched(body, at, 1 << 20)),
            Err(FrameError::Truncated)
        );
        assert_eq!(
            Frame::decode(&patched(body, at, u32::MAX)),
            Err(FrameError::Oversized(u64::from(u32::MAX)))
        );
    }

    // A table one entry short of its declared count, and one entry long.
    let entries = u32::from_le_bytes(
        done[RESIDENT_DONE_COUNT_AT..RESIDENT_DONE_COUNT_AT + 4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(
        Frame::decode(&patched(&done, RESIDENT_DONE_COUNT_AT, entries + 1)),
        Err(FrameError::Truncated)
    );
    assert_eq!(
        Frame::decode(&patched(&done, RESIDENT_DONE_COUNT_AT, entries - 1)),
        Err(FrameError::Trailing(4))
    );

    // A flipped tag: the body is read under another layout (or none) and
    // must not come back as the frame it was.
    for body in [&shard, &commit, &done] {
        for tag in 0..=255u8 {
            if tag == body[0] {
                continue;
            }
            let mut bytes = body.to_vec();
            bytes[0] = tag;
            if let Ok(frame) = Frame::decode(&bytes) {
                assert_ne!(frame.encode(), *body, "tag {tag} aliased the frame");
            }
        }
    }
}
