//! The structured events instrumented layers emit, and their one-line JSON
//! wire format.
//!
//! Every variant is stated once, as a row of the `events!` table below: its
//! wire tag and its documented fields in wire order. The table generates
//! [`Event`], the encoder behind [`event_json`] and the decoder behind
//! [`event_from_json`]; the private `Field` trait gives each field type its
//! JSON form. Adding an event means one table row plus one golden line in
//! this file's tests.

use std::fmt::Write as _;

/// Power-of-two histogram of per-link word counts within one transport
/// round: bucket `i` counts links that carried `w` words with
/// `floor(log2(w)) == i` (clamped to the last bucket), so bucket 0 is
/// single-word links, bucket 3 is links carrying 8–15 words, and so on.
/// Merging across rounds is element-wise addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkHistogram {
    /// `buckets[i]` — links whose word count lies in `[2^i, 2^(i+1))`.
    pub buckets: [u64; Self::BUCKETS],
}

impl LinkHistogram {
    /// Number of buckets; the last bucket absorbs everything at or above
    /// `2^(BUCKETS-1)` words.
    pub const BUCKETS: usize = 16;

    /// Counts one link that carried `words` words (zero-word links are
    /// never charged and never counted).
    pub fn add(&mut self, words: u64) {
        if words == 0 {
            return;
        }
        let bucket = (63 - words.leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &LinkHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total links counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// A field's wire key: its name, or the `as "key"` the table gives it.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The event table. Each row is `Variant = "wire_tag" { fields }`, fields in
/// wire order, and expands to the enum variant, its encoder arm and its
/// decoder arm (plus, under test, its tag and a random-instance maker).
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)?: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        fn write_event(event: &Event, out: &mut String) {
            match event {
                $( Event::$variant { $($field),* } => {
                    out.push_str(concat!("{\"event\":\"", $tag, "\""));
                    $(
                        out.push_str(concat!(",\"", wire_key!($field $($key)?), "\":"));
                        $field.write(out);
                    )*
                } )*
            }
            out.push('}');
        }

        fn decode(fields: &Fields<'_>) -> Option<Event> {
            Some(match fields.tag()? {
                $( $tag => Event::$variant {
                    $( $field: Field::read(fields.get(wire_key!($field $($key)?))?)?, )*
                }, )*
                _ => return None,
            })
        }

        /// Every wire tag, in table order.
        #[cfg(test)]
        const TAGS: &[&str] = &[$($tag),*];

        /// One random-instance maker per row, in table order.
        #[cfg(test)]
        const ARBITRARY: &[fn(&mut proptest::strategy::TestRng) -> Event] = &[$(
            |rng| Event::$variant { $( $field: tests::Arbitrary::arbitrary(rng), )* }
        ),*];
    };
}

events! {
    /// One structured observation from an instrumented layer. Events are
    /// data, not behaviour: sinks aggregate or serialise them, and nothing
    /// in the simulation ever reads one back.
    ///
    /// Each variant is one row of the table in `event.rs`, which also
    /// generates its [`event_json`] encoding and [`event_from_json`]
    /// decoding; the row's wire tag is the `"event"` value of its JSON line
    /// and its fields follow in declaration order. Adding an event means
    /// one table row plus one golden line in that file's tests.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// A malformed `CC_*` environment value was ignored (the
        /// [`crate::env_config::warn_once`] contract routed through the sink).
        ConfigWarning = "config_warning" {
            /// Reporting crate (`"cc-runtime"`, `"cc-transport"`, …).
            owner: String,
            /// The environment variable.
            var: &'static str,
            /// The rejected raw value.
            raw: String,
            /// The accepted grammar.
            expected: String,
            /// The fallback that was used instead.
            using: String,
        },
        /// A named monotone counter increment.
        Counter = "counter" {
            /// Counter name (aggregated by name in the memory sink).
            name: &'static str,
            /// Increment.
            delta: u64,
        },
        /// A named gauge observation (last value wins in the memory sink).
        Gauge = "gauge" {
            /// Gauge name.
            name: &'static str,
            /// Observed value.
            value: f64,
        },
        /// A clique accounting phase opened ([`TraceLevel::Summary`]).
        ///
        /// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
        PhaseStart = "phase_start" {
            /// Phase name.
            name: String,
        },
        /// A clique accounting phase closed, with the rounds/words charged to
        /// the whole clique while it ran and its own wall-clock
        /// ([`TraceLevel::Summary`]).
        ///
        /// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
        PhaseEnd = "phase_end" {
            /// Phase name.
            name: String,
            /// Link-level rounds charged while the phase was open.
            rounds: u64,
            /// Words delivered while the phase was open.
            words: u64,
            /// Wall-clock the phase body took.
            wall_ns: u64,
        },
        /// One engine round barrier ([`TraceLevel::Rounds`]): node stepping
        /// wall-clock, barrier (delivery) wall-clock, and the round's link
        /// accounting.
        ///
        /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
        EngineRound = "engine_round" {
            /// Engine round index (0-based).
            round: u64,
            /// Nodes still live entering this round.
            live: usize,
            /// Wall-clock of stepping all live nodes.
            step_ns: u64,
            /// Wall-clock of the fabric barrier (merge + deliver + account).
            barrier_ns: u64,
            /// Link-level rounds this barrier charged (the max per-link load).
            rounds: u64,
            /// Words delivered at this barrier.
            words: u64,
        },
        /// One executor fan-out decision ([`TraceLevel::Full`]): how many
        /// independent pieces were queued and whether they dispatched to worker
        /// threads or ran inline under the executor's cutover heuristic.
        ///
        /// [`TraceLevel::Full`]: crate::TraceLevel::Full
        ExecutorDispatch = "executor_dispatch" {
            /// Independent pieces in the job (the dispatch queue depth).
            pieces: usize,
            /// Worker threads used; `1` means the job ran inline.
            threads: usize,
        },
        /// One node-local kernel dispatch decision ([`TraceLevel::Full`]): which
        /// multiply kernel the `CC_KERNEL` selection chose for a local product —
        /// the local-compute mirror of [`Event::ExecutorDispatch`]. Also carries
        /// the executor's probe-derived cutover (as `kernel = "probe"`,
        /// `op = "exec_cutover"`, `n` = chosen cutover) when self-tuning runs.
        ///
        /// [`TraceLevel::Full`]: crate::TraceLevel::Full
        KernelDecision = "kernel_decision" {
            /// Kernel actually used (`"naive"`, `"blocked"`, `"strassen"`,
            /// `"bitset"`, `"planes"` for the min-plus distance planes, or
            /// `"probe"` for the cutover micro-probe).
            kernel: &'static str,
            /// Operation dispatched (`"mul_i64"`, `"mul_bool"`,
            /// `"minplus_witness"`, `"exec_cutover"`).
            op: &'static str,
            /// Problem size (output rows), or the probed cutover value.
            n: usize,
            /// Tile edge in effect (`0` when tiling is not involved).
            tile: usize,
        },
        /// One transport round barrier ([`TraceLevel::Rounds`]): per-link load
        /// distribution and the barrier wait (rendezvous) wall-clock.
        ///
        /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
        TransportRound = "transport_round" {
            /// Backend name (`"inmemory"`, `"socket"`, `"tcp"`).
            backend: &'static str,
            /// Barrier epoch this round committed.
            epoch: u64,
            /// Charged links this round.
            links: usize,
            /// Total words across all links.
            words: u64,
            /// Heaviest link (the round cost).
            max_link: u64,
            /// Mean words per charged link.
            mean_link: f64,
            /// Wall-clock of the barrier (ship + rendezvous + reassembly).
            barrier_ns: u64,
            /// Per-link word-count histogram.
            hist: LinkHistogram,
        },
        /// One coalesced frame batch shipped by a batching backend
        /// ([`TraceLevel::Full`]).
        ///
        /// [`TraceLevel::Full`]: crate::TraceLevel::Full
        FrameBatch = "frame_batch" {
            /// Backend name.
            backend: &'static str,
            /// Frames coalesced into the batch.
            frames: usize,
            /// Encoded batch size in bytes.
            bytes: usize,
        },
        /// One program-resident round barrier ([`TraceLevel::Rounds`]): the
        /// workers stepped their shards and exchanged payloads peer-to-peer;
        /// only the commit tokens crossed the orchestrator. The split between
        /// `peer_bytes` and `orchestrator_bytes` is the star-vs-clique
        /// accounting the peer-resident refactor exists to move.
        ///
        /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
        ResidentRound = "resident_round" {
            /// Backend name (`"tcp"`).
            backend: &'static str,
            /// Barrier epoch this round committed.
            epoch: u64,
            /// Nodes still live after this round's step.
            live: u64,
            /// Payload bytes exchanged worker→worker this round.
            peer_bytes: u64,
            /// Payload bytes routed through the orchestrator this round
            /// (`0` by construction in resident mode).
            orchestrator_bytes: u64,
        },
        /// One network-conditioned round barrier ([`TraceLevel::Rounds`]): the
        /// netsim wrapper's per-round aggregate — simulated completion time
        /// (the max over delivering links, retransmits included) and how many
        /// links retransmitted or straggled.
        ///
        /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
        NetsimRound = "netsim_round" {
            /// Conditioning profile name (`"lan"`, `"wan"`, `"lossy"`,
            /// `"flaky-node"`).
            profile: &'static str,
            /// Barrier epoch this round committed.
            epoch: u64,
            /// Charged links this round.
            links: usize,
            /// Simulated round completion time: the slowest link's delivery
            /// time in simulated nanoseconds.
            sim_ns: u64,
            /// Simulated retransmissions across all links this round.
            retransmits: u64,
            /// Links hit by straggler injection this round.
            stragglers: u64,
        },
        /// One lossy link's simulated retransmit sequence within a round
        /// ([`TraceLevel::Full`]).
        ///
        /// [`TraceLevel::Full`]: crate::TraceLevel::Full
        NetsimRetransmit = "netsim_retransmit" {
            /// Conditioning profile name.
            profile: &'static str,
            /// Barrier epoch the retransmits happened in.
            epoch: u64,
            /// Link source node.
            src: usize,
            /// Link destination node.
            dst: usize,
            /// Delivery attempts the link needed (`2` means one retransmit).
            attempts: u32,
        },
        /// One injected node fault or its recovery ([`TraceLevel::Summary`]).
        ///
        /// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
        NetsimFault = "netsim_fault" {
            /// Conditioning profile name.
            profile: &'static str,
            /// Barrier epoch the fault was injected after.
            epoch: u64,
            /// The crashed / recovered node.
            node: usize,
            /// `"crash"` or `"recover"`.
            kind: &'static str,
            /// Words of serialized program state re-shipped (`0` for crashes;
            /// recoveries carry the checkpoint size).
            state_words: usize,
        },
        /// An event captured inside a worker process and merged into the
        /// orchestrator's stream with per-process attribution
        /// ([`crate::Telemetry::merge_worker`]). Wrapping — instead of a
        /// `worker_id` on every variant — keeps orchestrator-emitted events
        /// and worker-emitted events structurally distinct, so aggregates can
        /// attribute without double counting. Wrapping is one level deep:
        /// the decoder rejects a `Worker` inside a `Worker`.
        Worker = "worker" {
            /// Worker process index (the transport shard id).
            worker: u32,
            /// The event exactly as the worker emitted it (wire key
            /// `"inner"`).
            event as "inner": Box<Event>,
        },
        /// A warm-pool checkout boundary ([`TraceLevel::Summary`]): the clique
        /// was reset for reuse, discarding the accounting totals recorded here.
        /// Delimits phases from different checkouts in long captures.
        ///
        /// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
        Reset = "reset" {
            /// Link-level rounds accumulated by the life being discarded.
            rounds: u64,
            /// Words accumulated by the life being discarded.
            words: u64,
            /// Fabric barrier epoch at reset (epochs keep counting across
            /// resets).
            epoch: u64,
        },
        /// One worker's lane through one barrier ([`TraceLevel::Rounds`]),
        /// measured by the orchestrator's commit-collection loop: wall-clock
        /// from barrier start until this worker's commit token was read. The
        /// per-epoch maximum identifies the worker that closed the barrier
        /// (the round's critical path); the spread is straggler skew.
        ///
        /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
        BarrierLane = "barrier_lane" {
            /// Backend name (`"socket"`, `"tcp"`).
            backend: &'static str,
            /// Barrier epoch the lane belongs to.
            epoch: u64,
            /// Worker process index.
            worker: u32,
            /// Wall-clock from barrier start to this worker's commit token.
            wall_ns: u64,
        },
    }
}

/// Serialises one event as a single-line JSON object (the [`crate::JsonlSink`]
/// wire format). Hand-rolled — the workspace carries no serde — with string
/// fields escaped.
#[must_use]
pub fn event_json(event: &Event) -> String {
    let mut out = String::new();
    write_event(event, &mut out);
    out
}

/// Parses one [`event_json`] line back into an [`Event`] — the merge half
/// of the distributed-capture wire format (workers ship `event_json` lines
/// inside `Frame::Telemetry`; the orchestrator and `cc-report --replay`
/// parse them back). Hand-rolled like the writer; returns `None` for
/// malformed lines or unknown event names rather than failing the run —
/// telemetry stays observer-only even against a corrupt capture. The lines
/// come from other processes, so decoding stays linear in the line length
/// and never recurses.
#[must_use]
pub fn event_from_json(line: &str) -> Option<Event> {
    decode(&parse_object(line.trim())?)
}

/// How one field type is written to and read from its JSON value.
trait Field: Sized {
    fn write(&self, out: &mut String);
    fn read(value: &Value<'_>) -> Option<Self>;
}

macro_rules! number_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(value: &Value<'_>) -> Option<Self> {
                match value {
                    Value::Num(raw) => raw.parse().ok(),
                    _ => None,
                }
            }
        }
    )*};
}

number_fields!(u64, usize, u32, f64);

impl Field for String {
    fn write(&self, out: &mut String) {
        write_str(out, self);
    }

    fn read(value: &Value<'_>) -> Option<Self> {
        match value {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

/// Names: parsed back through [`intern`], so the decoded event has the
/// `'static` shape the emitting side used.
impl Field for &'static str {
    fn write(&self, out: &mut String) {
        write_str(out, self);
    }

    fn read(value: &Value<'_>) -> Option<Self> {
        match value {
            Value::Str(s) => Some(intern(s)),
            _ => None,
        }
    }
}

/// A JSON array of exactly [`LinkHistogram::BUCKETS`] counts.
impl Field for LinkHistogram {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, bucket) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{bucket}");
        }
        out.push(']');
    }

    fn read(value: &Value<'_>) -> Option<Self> {
        match value {
            Value::Arr(buckets) => Some(Self {
                buckets: buckets.as_slice().try_into().ok()?,
            }),
            _ => None,
        }
    }
}

/// [`Event::Worker`]'s payload, a nested object. `merge_worker` wraps once
/// and workers never emit `Worker`, so an inner `worker` tag is rejected
/// before it is decoded: nesting cannot make the decoder recurse.
impl Field for Box<Event> {
    fn write(&self, out: &mut String) {
        write_event(self, out);
    }

    fn read(value: &Value<'_>) -> Option<Self> {
        let Value::Obj(raw) = value else { return None };
        let fields = parse_object(raw)?;
        if fields.tag()? == "worker" {
            return None;
        }
        decode(&fields).map(Box::new)
    }
}

/// Returns a `'static` copy of `s`, deduplicated through a process-global
/// registry. Parsed events need `&'static str` fields to round-trip into
/// the same [`Event`] shape the emitting side used; the registry bounds
/// the leak to one allocation per distinct name ever parsed.
fn intern(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static NAMES: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(Mutex::default)
        .lock()
        .expect("intern registry poisoned");
    if let Some(&name) = names.get(s) {
        return name;
    }
    let name: &'static str = Box::leak(s.into());
    names.insert(name);
    name
}

/// The parsed fields of one flat JSON object, in line order.
struct Fields<'a>(Vec<(String, Value<'a>)>);

/// One parsed JSON value: raw number text (so `u64` stays exact), an
/// unescaped string, a `u64` array (histograms), or the raw text of a
/// nested object (decoded on demand for [`Event::Worker`]).
enum Value<'a> {
    Str(String),
    Num(&'a str),
    Arr(Vec<u64>),
    Obj(&'a str),
}

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The `"event"` wire tag.
    fn tag(&self) -> Option<&str> {
        match self.get("event")? {
            Value::Str(tag) => Some(tag),
            _ => None,
        }
    }
}

fn parse_object(text: &str) -> Option<Fields<'_>> {
    let mut p = Parser { text, pos: 0 };
    let fields = p.object()?;
    p.skip_ws();
    // Trailing garbage after the object rejects the line.
    (p.pos == text.len()).then_some(fields)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    fn object(&mut self) -> Option<Fields<'a>> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        if self.eat(b'}').is_some() {
            return Some(Fields(entries));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            entries.push((key, self.value()?));
            if self.eat(b'}').is_some() {
                return Some(Fields(entries));
            }
            self.eat(b',')?;
        }
    }

    fn value(&mut self) -> Option<Value<'a>> {
        self.skip_ws();
        Some(match self.peek()? {
            b'"' => Value::Str(self.string()?),
            b'[' => Value::Arr(self.array()?),
            b'{' => Value::Obj(self.raw_object()?),
            _ => Value::Num(self.number()?),
        })
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash passes through
            // verbatim in one slice; both stops are ASCII, so every cut
            // lands on a char boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\'])?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Some(out);
            }
            let escape = self.peek()?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4)?;
                    out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                    self.pos += 4;
                }
                _ => return None,
            }
        }
    }

    fn number(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    fn array(&mut self) -> Option<Vec<u64>> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.eat(b']').is_some() {
            return Some(out);
        }
        loop {
            out.push(self.number()?.parse().ok()?);
            if self.eat(b']').is_some() {
                return Some(out);
            }
            self.eat(b',')?;
        }
    }

    /// Consumes one balanced nested object and returns its raw text. A
    /// depth count, not recursion, so deep nesting costs no stack; strings
    /// are skipped whole, so braces inside values don't miscount.
    fn raw_object(&mut self) -> Option<&'a str> {
        let start = self.pos;
        let mut depth = 0usize;
        loop {
            match self.peek()? {
                b'"' => {
                    self.string()?;
                    continue;
                }
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
            self.pos += 1;
            if depth == 0 {
                return Some(&self.text[start..self.pos]);
            }
        }
    }
}

/// Minimal JSON string quoting: escapes quotes, backslashes, and control
/// characters (config warnings carry raw environment values).
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::TestRng;

    #[test]
    fn histogram_buckets_are_power_of_two_ranges() {
        let mut h = LinkHistogram::default();
        h.add(0); // never charged, never counted
        h.add(1);
        h.add(2);
        h.add(3);
        h.add(8);
        h.add(15);
        h.add(u64::MAX); // clamps into the last bucket
        assert_eq!(h.buckets[0], 1, "one single-word link");
        assert_eq!(h.buckets[1], 2, "two links in [2,4)");
        assert_eq!(h.buckets[3], 2, "two links in [8,16)");
        assert_eq!(h.buckets[LinkHistogram::BUCKETS - 1], 1);
        assert_eq!(h.total(), 6);

        let mut other = LinkHistogram::default();
        other.add(1);
        h.merge(&other);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn event_json_escapes_raw_values() {
        let line = event_json(&Event::ConfigWarning {
            owner: "cc-runtime".to_string(),
            var: "CC_EXECUTOR",
            raw: "para\"llel\\x\n".to_string(),
            expected: "names".to_string(),
            using: "Sequential".to_string(),
        });
        assert!(line.contains("\\\"llel\\\\x\\n"), "escaped: {line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('\n').count(), 0, "one line per event");
    }

    #[test]
    fn event_json_covers_every_variant() {
        let events = [
            Event::ConfigWarning {
                owner: "cc-runtime".to_string(),
                var: "CC_EXECUTOR",
                raw: "x".to_string(),
                expected: "names".to_string(),
                using: "Sequential".to_string(),
            },
            Event::Counter {
                name: "c",
                delta: 1,
            },
            Event::Gauge {
                name: "g",
                value: 0.5,
            },
            Event::PhaseStart {
                name: "p".to_string(),
            },
            Event::PhaseEnd {
                name: "p".to_string(),
                rounds: 1,
                words: 2,
                wall_ns: 3,
            },
            Event::EngineRound {
                round: 0,
                live: 4,
                step_ns: 10,
                barrier_ns: 20,
                rounds: 1,
                words: 8,
            },
            Event::ExecutorDispatch {
                pieces: 64,
                threads: 1,
            },
            Event::KernelDecision {
                kernel: "bitset",
                op: "mul_bool",
                n: 256,
                tile: 0,
            },
            Event::TransportRound {
                backend: "inmemory",
                epoch: 7,
                links: 3,
                words: 9,
                max_link: 4,
                mean_link: 3.0,
                barrier_ns: 100,
                hist: LinkHistogram::default(),
            },
            Event::FrameBatch {
                backend: "socket",
                frames: 12,
                bytes: 4096,
            },
            Event::ResidentRound {
                backend: "tcp",
                epoch: 3,
                live: 5,
                peer_bytes: 2048,
                orchestrator_bytes: 0,
            },
            Event::NetsimRound {
                profile: "lossy",
                epoch: 2,
                links: 12,
                sim_ns: 1_500_000,
                retransmits: 3,
                stragglers: 1,
            },
            Event::NetsimRetransmit {
                profile: "lossy",
                epoch: 2,
                src: 0,
                dst: 5,
                attempts: 2,
            },
            Event::NetsimFault {
                profile: "flaky-node",
                epoch: 11,
                node: 4,
                kind: "recover",
                state_words: 64,
            },
            Event::Worker {
                worker: 2,
                event: Box::new(Event::FrameBatch {
                    backend: "tcp",
                    frames: 3,
                    bytes: 512,
                }),
            },
            Event::Reset {
                rounds: 40,
                words: 9000,
                epoch: 17,
            },
            Event::BarrierLane {
                backend: "socket",
                epoch: 5,
                worker: 1,
                wall_ns: 120_000,
            },
        ];
        for e in &events {
            let line = event_json(e);
            assert!(
                line.starts_with("{\"event\":\"") && line.ends_with('}'),
                "malformed line for {e:?}: {line}"
            );
        }
        for tag in TAGS {
            let prefix = format!("{{\"event\":\"{tag}\",");
            assert!(
                events.iter().any(|e| event_json(e).starts_with(&prefix)),
                "variant {tag} is not covered"
            );
        }
    }

    #[test]
    fn event_json_round_trips_through_the_parser() {
        let mut hist = LinkHistogram::default();
        hist.add(1);
        hist.add(9);
        hist.add(u64::MAX);
        let events = [
            Event::ConfigWarning {
                owner: "cc-runtime".to_string(),
                var: "CC_EXECUTOR",
                raw: "para\"llel\\x\n\u{1}".to_string(),
                expected: "sequential or parallel".to_string(),
                using: "Sequential".to_string(),
            },
            Event::Counter {
                name: "config_warnings",
                delta: 3,
            },
            Event::Gauge {
                name: "service_cache_hits",
                value: 0.125,
            },
            Event::PhaseStart {
                name: "triangles".to_string(),
            },
            Event::PhaseEnd {
                name: "triangles".to_string(),
                rounds: 12,
                words: 3456,
                wall_ns: 7_890_123,
            },
            Event::EngineRound {
                round: 4,
                live: 16,
                step_ns: 100,
                barrier_ns: 200,
                rounds: 1,
                words: 64,
            },
            Event::ExecutorDispatch {
                pieces: 64,
                threads: 4,
            },
            Event::KernelDecision {
                kernel: "bitset",
                op: "mul_bool",
                n: 256,
                tile: 64,
            },
            Event::TransportRound {
                backend: "socket",
                epoch: 7,
                links: 240,
                words: 9_999,
                max_link: 52,
                mean_link: 41.662_5,
                barrier_ns: 1_234_567,
                hist,
            },
            Event::FrameBatch {
                backend: "socket",
                frames: 17,
                bytes: 65_536,
            },
            Event::ResidentRound {
                backend: "tcp",
                epoch: 3,
                live: 5,
                peer_bytes: 2_048,
                orchestrator_bytes: 0,
            },
            Event::NetsimRound {
                profile: "lossy",
                epoch: 2,
                links: 12,
                sim_ns: 1_500_000,
                retransmits: 3,
                stragglers: 1,
            },
            Event::NetsimRetransmit {
                profile: "lossy",
                epoch: 2,
                src: 0,
                dst: 5,
                attempts: 2,
            },
            Event::NetsimFault {
                profile: "flaky-node",
                epoch: 11,
                node: 4,
                kind: "recover",
                state_words: 64,
            },
            Event::Worker {
                worker: 2,
                event: Box::new(Event::ResidentRound {
                    backend: "tcp",
                    epoch: 9,
                    live: 8,
                    peer_bytes: 4_096,
                    orchestrator_bytes: 0,
                }),
            },
            Event::Reset {
                rounds: 40,
                words: 9_000,
                epoch: 17,
            },
            Event::BarrierLane {
                backend: "tcp",
                epoch: 5,
                worker: 1,
                wall_ns: 120_000,
            },
        ];
        for e in &events {
            let line = event_json(e);
            let parsed = event_from_json(&line);
            assert_eq!(parsed.as_ref(), Some(e), "round trip failed: {line}");
        }
    }

    /// The wire format, pinned byte for byte: one exact line per variant,
    /// plus escaped strings, extreme integers, `f64` renderings, a full
    /// histogram and `Worker` wrapping (one level, as `merge_worker`
    /// produces). Adding an event means adding its line here.
    fn golden() -> Vec<(Event, String)> {
        let mut full = LinkHistogram::default();
        for (i, b) in full.buckets.iter_mut().enumerate() {
            *b = i as u64 * 3 + 1;
        }
        full.buckets[LinkHistogram::BUCKETS - 1] = u64::MAX;
        let escaped = Event::ConfigWarning {
            owner: "cc-runtime".to_string(),
            var: "CC_EXECUTOR",
            raw: "para\"llel\\x\n\r\t\u{1}\u{1f}/\u{7f}é☃🦀".to_string(),
            expected: "sequential or parallel[:t]".to_string(),
            using: "Sequential".to_string(),
        };
        let escaped_line = "{\"event\":\"config_warning\",\"owner\":\"cc-runtime\",\
            \"var\":\"CC_EXECUTOR\",\"raw\":\"para\\\"llel\\\\x\\n\\r\\t\\u0001\\u001f/\u{7f}é☃🦀\",\
            \"expected\":\"sequential or parallel[:t]\",\"using\":\"Sequential\"}";
        let frame_batch = Event::FrameBatch {
            backend: "socket",
            frames: 17,
            bytes: 65_536,
        };
        let frame_batch_line = "{\"event\":\"frame_batch\",\"backend\":\"socket\",\"frames\":17,\
            \"bytes\":65536}";
        let cases: Vec<(Event, &str)> = vec![
            (escaped.clone(), escaped_line),
            (
                Event::ConfigWarning {
                    owner: String::new(),
                    var: "CC_TRACE",
                    raw: "banana".to_string(),
                    expected: "off".to_string(),
                    using: "off".to_string(),
                },
                "{\"event\":\"config_warning\",\"owner\":\"\",\"var\":\"CC_TRACE\",\
                 \"raw\":\"banana\",\"expected\":\"off\",\"using\":\"off\"}",
            ),
            (
                Event::Counter {
                    name: "config_warnings",
                    delta: 3,
                },
                "{\"event\":\"counter\",\"name\":\"config_warnings\",\"delta\":3}",
            ),
            (
                Event::Counter {
                    name: "worker_events_dropped",
                    delta: u64::MAX,
                },
                "{\"event\":\"counter\",\"name\":\"worker_events_dropped\",\
                 \"delta\":18446744073709551615}",
            ),
            (
                Event::Gauge {
                    name: "service_cache_hits",
                    value: 0.125,
                },
                "{\"event\":\"gauge\",\"name\":\"service_cache_hits\",\"value\":0.125}",
            ),
            (
                Event::Gauge {
                    name: "g",
                    value: 3.0,
                },
                "{\"event\":\"gauge\",\"name\":\"g\",\"value\":3}",
            ),
            (
                Event::Gauge {
                    name: "g",
                    value: 1e-7,
                },
                "{\"event\":\"gauge\",\"name\":\"g\",\"value\":0.0000001}",
            ),
            (
                Event::PhaseStart {
                    name: "triangles".to_string(),
                },
                "{\"event\":\"phase_start\",\"name\":\"triangles\"}",
            ),
            (
                Event::PhaseEnd {
                    name: "triangles".to_string(),
                    rounds: 12,
                    words: 3_456,
                    wall_ns: 7_890_123,
                },
                "{\"event\":\"phase_end\",\"name\":\"triangles\",\"rounds\":12,\"words\":3456,\
                 \"wall_ns\":7890123}",
            ),
            (
                Event::EngineRound {
                    round: 4,
                    live: usize::MAX,
                    step_ns: 100,
                    barrier_ns: 200,
                    rounds: 1,
                    words: u64::MAX,
                },
                "{\"event\":\"engine_round\",\"round\":4,\"live\":18446744073709551615,\
                 \"step_ns\":100,\"barrier_ns\":200,\"rounds\":1,\
                 \"words\":18446744073709551615}",
            ),
            (
                Event::ExecutorDispatch {
                    pieces: 64,
                    threads: 1,
                },
                "{\"event\":\"executor_dispatch\",\"pieces\":64,\"threads\":1}",
            ),
            (
                Event::KernelDecision {
                    kernel: "planes",
                    op: "minplus_witness",
                    n: 256,
                    tile: 0,
                },
                "{\"event\":\"kernel_decision\",\"kernel\":\"planes\",\
                 \"op\":\"minplus_witness\",\"n\":256,\"tile\":0}",
            ),
            (
                Event::TransportRound {
                    backend: "inmemory",
                    epoch: 7,
                    links: 3,
                    words: 9,
                    max_link: 4,
                    mean_link: 3.0,
                    barrier_ns: 100,
                    hist: LinkHistogram::default(),
                },
                "{\"event\":\"transport_round\",\"backend\":\"inmemory\",\"epoch\":7,\
                 \"links\":3,\"words\":9,\"max_link\":4,\"mean_link\":3,\"barrier_ns\":100,\
                 \"hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}",
            ),
            (
                Event::TransportRound {
                    backend: "socket",
                    epoch: u64::MAX,
                    links: 240,
                    words: 9_999,
                    max_link: 52,
                    mean_link: 41.662_5,
                    barrier_ns: 1_234_567,
                    hist: full,
                },
                "{\"event\":\"transport_round\",\"backend\":\"socket\",\
                 \"epoch\":18446744073709551615,\"links\":240,\"words\":9999,\
                 \"max_link\":52,\"mean_link\":41.6625,\"barrier_ns\":1234567,\
                 \"hist\":[1,4,7,10,13,16,19,22,25,28,31,34,37,40,43,18446744073709551615]}",
            ),
            (frame_batch.clone(), frame_batch_line),
            (
                Event::ResidentRound {
                    backend: "tcp",
                    epoch: 3,
                    live: 5,
                    peer_bytes: 2_048,
                    orchestrator_bytes: 0,
                },
                "{\"event\":\"resident_round\",\"backend\":\"tcp\",\"epoch\":3,\"live\":5,\
                 \"peer_bytes\":2048,\"orchestrator_bytes\":0}",
            ),
            (
                Event::NetsimRound {
                    profile: "lossy",
                    epoch: 2,
                    links: 12,
                    sim_ns: 1_500_000,
                    retransmits: 3,
                    stragglers: 1,
                },
                "{\"event\":\"netsim_round\",\"profile\":\"lossy\",\"epoch\":2,\"links\":12,\
                 \"sim_ns\":1500000,\"retransmits\":3,\"stragglers\":1}",
            ),
            (
                Event::NetsimRetransmit {
                    profile: "lossy",
                    epoch: 2,
                    src: 0,
                    dst: 5,
                    attempts: u32::MAX,
                },
                "{\"event\":\"netsim_retransmit\",\"profile\":\"lossy\",\"epoch\":2,\"src\":0,\
                 \"dst\":5,\"attempts\":4294967295}",
            ),
            (
                Event::NetsimFault {
                    profile: "flaky-node",
                    epoch: 11,
                    node: 4,
                    kind: "recover",
                    state_words: 64,
                },
                "{\"event\":\"netsim_fault\",\"profile\":\"flaky-node\",\"epoch\":11,\
                 \"node\":4,\"kind\":\"recover\",\"state_words\":64}",
            ),
            (
                Event::Reset {
                    rounds: 40,
                    words: 9_000,
                    epoch: 17,
                },
                "{\"event\":\"reset\",\"rounds\":40,\"words\":9000,\"epoch\":17}",
            ),
            (
                Event::BarrierLane {
                    backend: "tcp",
                    epoch: 5,
                    worker: u32::MAX,
                    wall_ns: 120_000,
                },
                "{\"event\":\"barrier_lane\",\"backend\":\"tcp\",\"epoch\":5,\
                 \"worker\":4294967295,\"wall_ns\":120000}",
            ),
        ];
        let mut golden: Vec<(Event, String)> = cases
            .into_iter()
            .map(|(e, line)| (e, line.to_string()))
            .collect();
        golden.push((
            Event::Gauge {
                name: "g",
                value: -1e300,
            },
            format!(
                "{{\"event\":\"gauge\",\"name\":\"g\",\"value\":-1{}}}",
                "0".repeat(300)
            ),
        ));
        for (worker, inner, inner_line) in [
            (2, frame_batch, frame_batch_line),
            (0, escaped, escaped_line),
        ] {
            golden.push((
                Event::Worker {
                    worker,
                    event: Box::new(inner),
                },
                format!("{{\"event\":\"worker\",\"worker\":{worker},\"inner\":{inner_line}}}"),
            ));
        }
        golden.push((
            Event::Worker {
                worker: u32::MAX,
                event: Box::new(Event::Counter {
                    name: "worker_events_dropped",
                    delta: 5,
                }),
            },
            "{\"event\":\"worker\",\"worker\":4294967295,\"inner\":{\"event\":\"counter\",\
             \"name\":\"worker_events_dropped\",\"delta\":5}}"
                .to_string(),
        ));
        golden
    }

    #[test]
    fn golden_lines_pin_the_wire_format() {
        for (event, line) in golden() {
            assert_eq!(event_json(&event), line, "encoding of {event:?}");
            assert_eq!(event_from_json(&line), Some(event), "decoding of {line}");
        }
    }

    #[test]
    fn every_tag_has_a_golden_line() {
        let golden = golden();
        for (i, tag) in TAGS.iter().enumerate() {
            assert!(!TAGS[..i].contains(tag), "tag {tag} used twice");
            let prefix = format!("{{\"event\":\"{tag}\",");
            assert!(
                golden.iter().any(|(_, line)| line.starts_with(&prefix)),
                "variant {tag} has no golden line"
            );
        }
    }

    /// Random instances for the round-trip property: full-range integers
    /// (extremes included), finite `f64`s of every exponent, strings mixing
    /// control characters, JSON punctuation and non-ASCII, and `Worker`
    /// wrapping any non-`Worker` variant.
    pub(super) trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            match rng.below(4) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64() >> rng.below(64),
            }
        }
    }

    impl Arbitrary for usize {
        fn arbitrary(rng: &mut TestRng) -> Self {
            u64::arbitrary(rng) as usize
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            u64::arbitrary(rng) as u32
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    return v;
                }
            }
        }
    }

    impl Arbitrary for String {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (0..rng.below(24))
                .map(|_| {
                    let code = match rng.below(4) {
                        0 => rng.below(0x20),
                        1 => u64::from(b"\"\\/{}[],:"[rng.below(9) as usize]),
                        2 => 0x20 + rng.below(0x60),
                        _ => rng.below(0x11_0000),
                    };
                    char::from_u32(code as u32).unwrap_or('\u{fffd}')
                })
                .collect()
        }
    }

    impl Arbitrary for &'static str {
        fn arbitrary(rng: &mut TestRng) -> Self {
            intern(&String::arbitrary(rng))
        }
    }

    impl Arbitrary for LinkHistogram {
        fn arbitrary(rng: &mut TestRng) -> Self {
            let mut hist = LinkHistogram::default();
            for bucket in &mut hist.buckets {
                *bucket = u64::arbitrary(rng);
            }
            hist
        }
    }

    impl Arbitrary for Box<Event> {
        fn arbitrary(rng: &mut TestRng) -> Self {
            let plain: Vec<usize> = (0..TAGS.len()).filter(|&i| TAGS[i] != "worker").collect();
            let pick = plain[rng.below(plain.len() as u64) as usize];
            Box::new(ARBITRARY[pick](rng))
        }
    }

    /// One random instance of every variant, in table order.
    struct EveryVariant;

    impl Strategy for EveryVariant {
        type Value = Vec<Event>;

        fn sample(&self, rng: &mut TestRng) -> Vec<Event> {
            ARBITRARY.iter().map(|make| make(rng)).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_variant_round_trips(events in EveryVariant) {
            for event in events {
                let line = event_json(&event);
                prop_assert!(!line.contains('\n'), "one line per event: {line}");
                prop_assert_eq!(event_from_json(&line), Some(event), "{}", line);
            }
        }
    }

    #[test]
    fn a_one_mebibyte_raw_value_round_trips() {
        let raw: String = "env=\"väl\\ue\"\n🦀 ".repeat(1 << 16);
        assert!(raw.len() >= 1 << 20);
        let event = Event::ConfigWarning {
            owner: "cc-runtime".to_string(),
            var: "CC_EXECUTOR",
            raw,
            expected: "sequential or parallel[:t]".to_string(),
            using: "Sequential".to_string(),
        };
        assert_eq!(event_from_json(&event_json(&event)), Some(event));
    }

    #[test]
    fn nested_worker_lines_are_rejected_without_recursing() {
        let inner = "{\"event\":\"counter\",\"name\":\"c\",\"delta\":1}";
        let nest = |depth: usize| {
            let open = "{\"event\":\"worker\",\"worker\":0,\"inner\":".repeat(depth);
            format!("{open}{inner}{}", "}".repeat(depth))
        };
        assert!(event_from_json(&nest(1)).is_some(), "one level decodes");
        assert_eq!(event_from_json(&nest(2)), None, "a worker in a worker");
        assert_eq!(event_from_json(&nest(10_000)), None);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"event\":\"no_such_event\"}",
            "{\"event\":\"counter\",\"name\":\"c\"}", // missing delta
            "{\"event\":\"counter\",\"name\":\"c\",\"delta\":1} trailing",
            "{\"event\":\"worker\",\"worker\":0,\"inner\":{\"event\":\"bogus\"}}",
            "{\"event\":\"transport_round\",\"backend\":\"socket\",\"epoch\":0,\
             \"links\":0,\"words\":0,\"max_link\":0,\"mean_link\":0,\"barrier_ns\":0,\
             \"hist\":[1,2]}", // short histogram
        ] {
            assert!(event_from_json(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn intern_returns_stable_references() {
        let a = event_from_json("{\"event\":\"counter\",\"name\":\"brand_new_name\",\"delta\":1}")
            .expect("parses");
        let b = event_from_json("{\"event\":\"counter\",\"name\":\"brand_new_name\",\"delta\":2}")
            .expect("parses");
        let (Event::Counter { name: na, .. }, Event::Counter { name: nb, .. }) = (&a, &b) else {
            panic!("wrong variants");
        };
        assert!(std::ptr::eq(*na, *nb), "same interned pointer");
    }
}
