//! Relay schedules of the balanced router: drawn once per message shape,
//! compiled into slab slots, kept in a process-wide cache bounded by bytes.

use crate::clique::RelayPolicy;
use crate::outbox::Outbox;
use crate::word::Word;
use cc_runtime::LinkLoads;
use cc_transport::{LinkSlab, SlabWriter};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

/// Byte budget of the process-wide schedule cache. A fast product at
/// n = 128 needs ≈ 0.46 MB per routed step (six bytes per routed word — a
/// phase-A slot and a phase-B row offset — four per message for its place
/// in the delivery, and two `n²` load tables of 32-bit counts; 1 822 976 B
/// for its four steps), so the budget holds the four steps of a fast
/// product up to n = 256 (7 014 656 B there; `crates/core/tests/
/// schedule_budget.rs` checks it); beyond that steps are drawn per call, as
/// they were before the cache existed.
const SCHEDULE_CACHE_BYTES: usize = 8 << 20;

/// One message of a routed step as the schedule sees it — `(src, dst, len)`
/// in 16 + 16 + 32 bits. A step's *shape* is the ordered sequence of these
/// over all its messages, empty ones included.
///
/// # Panics
///
/// Panics if `len` does not fit. `src` and `dst` are node ids the router
/// has range-checked, of a clique [`RouteSchedule::build`] accepts
/// (`n ≤ 65 536`).
pub(crate) fn pack_head(src: usize, dst: usize, len: usize) -> u64 {
    let len = u32::try_from(len).expect("a routed message holds fewer than 2^32 words");
    debug_assert!(src < 1 << 16 && dst < 1 << 16);
    ((src as u64) << 48) | ((dst as u64) << 32) | u64::from(len)
}

fn unpack_head(head: u64) -> (usize, usize, usize) {
    (
        (head >> 48) as usize,
        (head >> 32) as usize & 0xffff,
        head as u32 as usize,
    )
}

/// Everything [`crate::Clique::route`] needs to put one routed step's words
/// onto the fabric without drawing a single hash: the per-link word counts
/// of its two phases, and where each word goes.
#[derive(Debug)]
pub(crate) struct RouteSchedule {
    n: usize,
    /// The shape this schedule was drawn for ([`pack_head`] per message).
    shape: Vec<u64>,
    /// Each phase's words per link, headers and self-links included: the
    /// destination-major counts of the slab it sizes (phase A
    /// `[relay * n + src]`, phase B `[dst * n + relay]`). Computed once per
    /// schedule; every slab a phase emits carries them, and its offset
    /// table is their prefix sums.
    loads: [LinkLoads; 2],
    /// Where each word goes, in shape order.
    placement: Placement,
}

#[derive(Debug)]
enum Placement {
    /// The relay of every word, for a step that is routed once: each call
    /// scatters it by a cursor per link. With `headers`, every word travels
    /// with its destination.
    Relays { relays: Vec<u16>, headers: bool },
    /// A compiled step: every word's slot in the phase-A slab, its offset
    /// inside its destination's row of the phase-B slab (a message has one
    /// destination, so the row's start is added per message), and the
    /// non-empty messages in the order the delivery slab holds them.
    Slots {
        a: Vec<u32>,
        b: Packed,
        delivery: Vec<u32>,
    },
}

impl RouteSchedule {
    /// Draws the schedule of one step: a relay for each word, balancing both
    /// the (src → relay) and (relay → dst) phases. Relays are drawn by a
    /// deterministic hash with power-of-two-choices (the less loaded of two
    /// candidates), which keeps per-link loads within a small constant of
    /// the ideal ⌈load/n⌉ — the guarantee of the routing schemes the paper
    /// invokes. With `headers` every routed word occupies two words on a
    /// link: itself and its destination.
    ///
    /// The draw is pass one of a counting sort: the load tables it fills
    /// double as the two-choice rule's running loads.
    ///
    /// # Panics
    ///
    /// Panics if `n > 65 536` or the step moves `2^32` link words or more.
    pub(crate) fn build(
        n: usize,
        seed: u64,
        policy: RelayPolicy,
        headers: bool,
        shape: Vec<u64>,
    ) -> Self {
        assert!(n <= 1 << 16, "relays are stored as u16 (n = {n})");
        let payload = 1 + u32::from(headers);
        let words: u64 = shape.iter().map(|&head| u64::from(head as u32)).sum();
        assert!(
            words * u64::from(payload) <= u64::from(u32::MAX),
            "a routed step of {words} words overflows the schedule's u32 link loads"
        );
        let mut a_load = vec![0u32; n * n];
        let mut b_load = vec![0u32; n * n];
        let mut relays = Vec::with_capacity(words as usize);
        for &head in &shape {
            let (src, dst, len) = unpack_head(head);
            for j in 0..len {
                let relay = match policy {
                    RelayPolicy::SingleHash => single_hash_relay(seed, n, src, dst, j),
                    RelayPolicy::TwoChoice => {
                        let h = relay_hash(seed, src, dst, j);
                        let r1 = (h % n as u64) as usize;
                        let r2 = ((h >> 32) % n as u64) as usize;
                        let cost = |r: usize| a_load[r * n + src].max(b_load[dst * n + r]);
                        if cost(r1) <= cost(r2) {
                            r1
                        } else {
                            r2
                        }
                    }
                };
                a_load[relay * n + src] += payload;
                b_load[dst * n + relay] += payload;
                relays.push(relay as u16);
            }
        }
        Self {
            n,
            shape,
            loads: [a_load, b_load].map(|counts| LinkLoads::from_counts(n, counts)),
            placement: Placement::Relays { relays, headers },
        }
    }

    /// The schedule of an oblivious step: fetched from the process-wide
    /// cache when a step with the same `(n, seed, policy)` and the same
    /// shape — compared in full, message by message — was routed before,
    /// drawn, compiled and inserted otherwise. A step whose compiled tables
    /// alone would exceed the cache's budget is drawn and returned as is:
    /// its caller routes it once.
    pub(crate) fn cached(
        n: usize,
        seed: u64,
        policy: RelayPolicy,
        shape: impl Iterator<Item = u64> + Clone,
    ) -> Arc<Self> {
        let key = Key {
            n,
            seed,
            policy,
            shape_hash: shape.clone().fold(0, |h, head| splitmix(h ^ head)),
        };
        // The lock is held to clone the `Arc` only; the hash pre-filters,
        // the comparison below decides. It is also what makes the tables of
        // a hit fit the outboxes the shape was read from.
        let candidate = cache().touch(&key);
        if let Some(hit) = candidate.filter(|s| shape.clone().eq(s.shape.iter().copied())) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let drawn = Self::build(n, seed, policy, false, shape.collect());
        if drawn.compiled_bytes() > SCHEDULE_CACHE_BYTES {
            return Arc::new(drawn);
        }
        let compiled = Arc::new(drawn.compile());
        cache().insert(key, compiled.clone());
        compiled
    }

    /// Compiles a drawn, header-free step: the cursor fill a per-call
    /// scatter would run assigns every word its phase-A slot and its
    /// phase-B row offset, once, a stable sort orders the messages the way
    /// the delivery holds them, and the relays are dropped. Row offsets
    /// narrow to 16 bits when every entry fits.
    ///
    /// # Panics
    ///
    /// Panics if the step carries headers or is compiled already, or if a
    /// link would receive other than the words its load sized.
    fn compile(self) -> Self {
        let Placement::Relays {
            relays,
            headers: false,
        } = &self.placement
        else {
            panic!("only a drawn, header-free step compiles");
        };
        let n = self.n;
        let starts = self.loads.each_ref().map(|loads| offsets(loads.counts()));
        let [mut a_cursor, mut b_cursor] = starts.clone();
        let mut a = Vec::with_capacity(relays.len());
        let mut b = Vec::with_capacity(relays.len());
        let mut relays = relays.iter().map(|&r| usize::from(r));
        for &head in &self.shape {
            let (src, dst, len) = unpack_head(head);
            let row = starts[1][dst * n];
            for relay in relays.by_ref().take(len) {
                let slot = &mut a_cursor[relay * n + src];
                a.push(*slot as u32);
                *slot += 1;
                let slot = &mut b_cursor[dst * n + relay];
                b.push((*slot - row) as u32);
                *slot += 1;
            }
        }
        assert!(
            a_cursor[..n * n] == starts[0][1..] && b_cursor[..n * n] == starts[1][1..],
            "every link must receive exactly the words it was sized for"
        );
        // The delivery slab is link-major, and a link's messages follow
        // each other in shape order: a stable sort by link.
        let messages =
            u32::try_from(self.shape.len()).expect("a routed step holds fewer than 2^32 messages");
        let mut delivery: Vec<u32> = (0..messages)
            .filter(|&i| self.shape[i as usize] as u32 > 0)
            .collect();
        delivery.sort_by_key(|&i| {
            let (src, dst, _) = unpack_head(self.shape[i as usize]);
            dst * n + src
        });
        Self {
            n,
            shape: self.shape,
            loads: self.loads,
            placement: Placement::Slots {
                a,
                b: Packed::U32(b).narrowed(),
                delivery,
            },
        }
    }

    /// What [`RouteSchedule::compile`] would leave resident, known before
    /// any table is built: four bytes per word for its phase-A slot, two or
    /// four for its phase-B row offset (four when some destination's row
    /// holds more than 2^16 words), four per non-empty message for the
    /// delivery order, and the two load tables.
    fn compiled_bytes(&self) -> usize {
        let lens = self.shape.iter().map(|&head| head as u32 as usize);
        let (words, messages) = (lens.clone().sum::<usize>(), lens.filter(|&l| l > 0).count());
        let widest_row = self.loads[1]
            .counts()
            .chunks_exact(self.n)
            .map(|row| row.iter().map(|&c| c as usize).sum::<usize>())
            .max()
            .unwrap_or(0);
        let b_width = if widest_row <= 1 << 16 { 2 } else { 4 };
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(&self.shape[..])
            + self.load_bytes()
            + words * (4 + b_width)
            + messages * 4
    }

    /// The two load tables' counts.
    fn load_bytes(&self) -> usize {
        self.loads
            .iter()
            .map(|loads| std::mem::size_of_val(loads.counts()))
            .sum()
    }

    /// Phase `phase`'s slab (0: src → relay, 1: relay → dst) of the step
    /// `outboxes` hold, whose messages must be this schedule's shape,
    /// carrying the phase's loads. A compiled step writes each word straight
    /// to its slot; a drawn one runs the counting sort's second pass with a
    /// cursor per link.
    ///
    /// # Panics
    ///
    /// Panics if a link receives other than the words it was sized for,
    /// which a shape mismatch would cause.
    pub(crate) fn slab(&self, phase: usize, outboxes: &[Outbox]) -> LinkSlab {
        let n = self.n;
        let (a, b) = match &self.placement {
            Placement::Relays { relays, headers } => {
                return self.cursor_slab(phase, relays, *headers, outboxes);
            }
            Placement::Slots { a, b, .. } => (a, b),
        };
        let offsets = offsets(self.loads[phase].counts());
        let mut words = vec![0; offsets[n * n]];
        if phase == 0 {
            let mut slots = &a[..];
            for out in outboxes {
                let (mine, rest) = slots.split_at(out.words().len());
                for (&w, &slot) in out.words().iter().zip(mine) {
                    words[slot as usize] = w;
                }
                slots = rest;
            }
        } else {
            match b {
                Packed::U16(b) => place_in_rows(n, b, &offsets, outboxes, &mut words),
                Packed::U32(b) => place_in_rows(n, b, &offsets, outboxes, &mut words),
            }
        }
        LinkSlab::from_raw(n, offsets, words).with_loads(self.loads[phase].clone())
    }

    /// The per-call scatter of a drawn step: pass two of the counting sort,
    /// pushing every word (and its header) onto its link's cursor.
    fn cursor_slab(
        &self,
        phase: usize,
        relays: &[u16],
        headers: bool,
        outboxes: &[Outbox],
    ) -> LinkSlab {
        let loads = &self.loads[phase];
        let counts = loads.counts().iter().map(|&c| c as usize).collect();
        let mut slab = SlabWriter::from_counts(self.n, counts);
        let mut relays = relays.iter().map(|&r| usize::from(r));
        for (src, out) in outboxes.iter().enumerate() {
            for (dst, words) in out.messages() {
                for (&w, relay) in words.iter().zip(&mut relays) {
                    let (from, to) = if phase == 0 {
                        (src, relay)
                    } else {
                        (relay, dst)
                    };
                    slab.push(from, to, w);
                    if headers {
                        slab.push(from, to, dst as Word);
                    }
                }
            }
        }
        slab.finish().with_loads(loads.clone())
    }

    /// What the step delivers: every message whole, each `(src, dst)` link
    /// holding its messages concatenated in shape order. A compiled step
    /// appends the messages in slab order, one copy each; a drawn one
    /// counting-sorts them.
    pub(crate) fn delivery(&self, outboxes: &[Outbox]) -> LinkSlab {
        let n = self.n;
        let messages = outboxes
            .iter()
            .enumerate()
            .flat_map(|(src, out)| out.messages().map(move |(dst, words)| (src, dst, words)));
        let Placement::Slots { delivery, .. } = &self.placement else {
            return LinkSlab::from_runs(n, messages);
        };
        let messages: Vec<&[Word]> = messages.map(|(_, _, words)| words).collect();
        let total = outboxes.iter().map(|out| out.words().len()).sum();
        let mut offsets = Vec::with_capacity(n * n + 1);
        let mut words = Vec::with_capacity(total);
        for &i in delivery {
            let (src, dst, _) = unpack_head(self.shape[i as usize]);
            offsets.resize(dst * n + src + 1, words.len());
            words.extend_from_slice(messages[i as usize]);
        }
        offsets.resize(n * n + 1, words.len());
        LinkSlab::from_raw(n, offsets, words)
    }

    /// What the schedule keeps resident.
    fn bytes(&self) -> usize {
        let placement = match &self.placement {
            Placement::Relays { relays, .. } => std::mem::size_of_val(&relays[..]),
            Placement::Slots { a, b, delivery } => {
                std::mem::size_of_val(&a[..]) + b.bytes() + std::mem::size_of_val(&delivery[..])
            }
        };
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(&self.shape[..])
            + self.load_bytes()
            + placement
    }
}

/// Phase B of a compiled step: each message's words land at their offsets
/// inside the row of the message's destination.
fn place_in_rows<T: Entry>(
    n: usize,
    offsets_in_row: &[T],
    slab_offsets: &[usize],
    outboxes: &[Outbox],
    words: &mut [Word],
) {
    let mut offs = offsets_in_row;
    for out in outboxes {
        for (dst, msg) in out.messages() {
            let (mine, rest) = offs.split_at(msg.len());
            let row = &mut words[slab_offsets[dst * n]..slab_offsets[(dst + 1) * n]];
            for (&w, &off) in msg.iter().zip(mine) {
                row[off.at()] = w;
            }
            offs = rest;
        }
    }
}

/// The prefix sums of a destination-major count table, from 0 to its total:
/// the offset table of the slab it sizes.
fn offsets(counts: &[u32]) -> Vec<usize> {
    let mut at = 0;
    std::iter::once(0)
        .chain(counts.iter().map(|&c| {
            at += c as usize;
            at
        }))
        .collect()
}

/// Unsigned table entries, stored in 16 bits when every one fits and in 32
/// otherwise.
#[derive(Debug)]
enum Packed {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Packed {
    /// The same entries, in 16 bits if each fits.
    fn narrowed(self) -> Self {
        match self {
            Self::U32(v) if v.iter().all(|&x| x <= u32::from(u16::MAX)) => {
                Self::U16(v.into_iter().map(|x| x as u16).collect())
            }
            packed => packed,
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Self::U16(v) => std::mem::size_of_val(&v[..]),
            Self::U32(v) => std::mem::size_of_val(&v[..]),
        }
    }
}

/// A table entry, read as an index.
trait Entry: Copy {
    fn at(self) -> usize;
}

impl Entry for u16 {
    #[inline]
    fn at(self) -> usize {
        usize::from(self)
    }
}

impl Entry for u32 {
    #[inline]
    fn at(self) -> usize {
        self as usize
    }
}

/// What a lookup can match without reading a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    n: usize,
    seed: u64,
    policy: RelayPolicy,
    shape_hash: u64,
}

/// The least-recently-used schedule cache: at most one entry per [`Key`],
/// `bytes ≤ SCHEDULE_CACHE_BYTES` at all times.
#[derive(Debug, Default)]
struct ScheduleCache {
    /// Key → the entry's stamp in `by_age`.
    stamps: HashMap<Key, u64>,
    /// Entries by the stamp of their last use, oldest first.
    by_age: BTreeMap<u64, (Key, Arc<RouteSchedule>)>,
    clock: u64,
    bytes: usize,
}

impl ScheduleCache {
    /// The entry stored under `key`, marked most recently used.
    fn touch(&mut self, key: &Key) -> Option<Arc<RouteSchedule>> {
        let stamp = self.stamps.get_mut(key)?;
        let entry = self.by_age.remove(stamp).expect("stamps index by_age");
        let schedule = entry.1.clone();
        self.clock += 1;
        *stamp = self.clock;
        self.by_age.insert(self.clock, entry);
        Some(schedule)
    }

    /// Stores `schedule` under `key`, replacing what was there (a colliding
    /// shape, or the same shape drawn concurrently by another thread) and
    /// evicting least-recently-used entries until it fits.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` alone is larger than the whole budget.
    fn insert(&mut self, key: Key, schedule: Arc<RouteSchedule>) {
        if let Some(stamp) = self.stamps.remove(&key) {
            let (_, old) = self.by_age.remove(&stamp).expect("stamps index by_age");
            self.bytes -= old.bytes();
        }
        let size = schedule.bytes();
        assert!(
            size <= SCHEDULE_CACHE_BYTES,
            "an over-budget schedule is kept"
        );
        while self.bytes + size > SCHEDULE_CACHE_BYTES {
            let (_, (old_key, old)) = self.by_age.pop_first().expect("bytes > 0 means entries");
            self.stamps.remove(&old_key);
            self.bytes -= old.bytes();
        }
        self.clock += 1;
        self.stamps.insert(key, self.clock);
        self.by_age.insert(self.clock, (key, schedule));
        self.bytes += size;
    }
}

static CACHE: LazyLock<Mutex<ScheduleCache>> = LazyLock::new(Mutex::default);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> std::sync::MutexGuard<'static, ScheduleCache> {
    CACHE
        .lock()
        .expect("a thread panicked inside the schedule cache")
}

/// `(hits, misses, bytes)` of the process-wide schedule cache: lookups
/// served from it, lookups that had to draw, and the bytes it holds now.
/// For the router's tests; nothing else reads it.
#[doc(hidden)]
#[must_use]
pub fn route_schedule_stats() -> (u64, u64, usize) {
    let bytes = cache().bytes;
    (
        HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
        bytes,
    )
}

/// The relay [`crate::Clique::route`] draws for word `j` of a `(src, dst)`
/// message under [`RelayPolicy::SingleHash`] on a clique of `n` nodes whose
/// `route_seed` is `seed`. The draw depends on nothing else, so a node
/// program that knows an oblivious pattern can reproduce the router's relay
/// choices — and hence its per-link loads — without a coordinator.
#[must_use]
#[inline]
pub fn single_hash_relay(seed: u64, n: usize, src: usize, dst: usize, j: usize) -> usize {
    (relay_hash(seed, src, dst, j) % n as u64) as usize
}

/// The hash both relay policies draw their candidates from.
fn relay_hash(seed: u64, src: usize, dst: usize, j: usize) -> u64 {
    splitmix(seed ^ ((src as u64) << 42) ^ ((dst as u64) << 21) ^ j as u64)
}

/// SplitMix64 finaliser; deterministic relay-balancing hash.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_pack_and_unpack() {
        for (src, dst, len) in [(0, 0, 0), (65_535, 1, 7), (3, 65_535, u32::MAX as usize)] {
            assert_eq!(unpack_head(pack_head(src, dst, len)), (src, dst, len));
        }
    }

    #[test]
    #[should_panic(expected = "fewer than 2^32 words")]
    fn heads_reject_an_overlong_message() {
        let _ = pack_head(0, 1, 1 << 32);
    }

    fn relays(s: &RouteSchedule) -> &[u16] {
        match &s.placement {
            Placement::Relays { relays, .. } => relays,
            Placement::Slots { .. } => panic!("a compiled schedule keeps no relays"),
        }
    }

    fn total_load(s: &RouteSchedule, phase: usize) -> usize {
        s.loads[phase].counts().iter().map(|&c| c as usize).sum()
    }

    #[test]
    fn build_restarts_the_word_index_per_message_and_skips_empty_ones() {
        // Two messages on one (src, dst) pair draw the same relays word for
        // word; an empty message in between draws nothing.
        let shape = vec![pack_head(0, 1, 3), pack_head(2, 2, 0), pack_head(0, 1, 3)];
        let s = RouteSchedule::build(5, 9, RelayPolicy::SingleHash, false, shape);
        assert_eq!(relays(&s).len(), 6);
        assert_eq!(relays(&s)[..3], relays(&s)[3..]);
        for phase in 0..2 {
            assert_eq!(total_load(&s, phase), 6);
        }
        // Headers double every link's load, not the number of draws.
        let d = RouteSchedule::build(
            5,
            9,
            RelayPolicy::SingleHash,
            true,
            vec![pack_head(0, 1, 3)],
        );
        assert_eq!(relays(&d).len(), 3);
        assert_eq!(total_load(&d, 0), 6);
    }

    /// Outboxes holding `shape`'s messages, every word its own index in
    /// shape order, so a slab shows where each word landed.
    fn numbered_outboxes(n: usize, shape: &[u64]) -> Vec<Outbox> {
        let mut outboxes: Vec<Outbox> = (0..n).map(|_| Outbox::new()).collect();
        let mut next = 0;
        for &head in shape {
            let (src, dst, len) = unpack_head(head);
            let words = outboxes[src].message(dst);
            for _ in 0..len {
                words.push(next);
                next += 1;
            }
        }
        outboxes
    }

    /// The oracle: where the per-call cursor fill of a drawn schedule puts
    /// every word, as `[phase][word] = slot`.
    fn cursor_fill(n: usize, drawn: &RouteSchedule, outboxes: &[Outbox]) -> [Vec<usize>; 2] {
        [0, 1].map(|phase| {
            let slab = drawn.slab(phase, outboxes);
            let mut slots = vec![usize::MAX; slab.total_words()];
            // A slab's words are its links end to end, in link order.
            let in_link_order = (0..n).flat_map(|dst| (0..n).map(move |src| (src, dst)));
            let words = in_link_order.flat_map(|(src, dst)| slab.link(src, dst));
            for (slot, &w) in words.enumerate() {
                slots[w as usize] = slot;
            }
            slots
        })
    }

    /// Shapes with empty messages, self-links, repeated `(src, dst)` pairs
    /// and silent nodes, and one whose destination row outgrows 16 bits.
    fn shapes() -> Vec<(usize, Vec<u64>)> {
        let mut state = 0x5eed_u64;
        let mut draw = |below: usize| {
            state = splitmix(state);
            (state % below as u64) as usize
        };
        let mut mixed = Vec::new();
        for src in 0..9 {
            for _ in 0..draw(5) {
                let dst = match draw(4) {
                    0 => src,
                    1 => (src + 1) % 9,
                    _ => draw(9),
                };
                mixed.push(pack_head(src, dst, draw(6)));
            }
            if src == 3 {
                mixed.extend([pack_head(3, 4, 0), pack_head(3, 4, 40)]);
            }
        }
        let wide = vec![
            pack_head(0, 1, 40_000),
            pack_head(2, 2, 5),
            pack_head(2, 1, 30_000),
        ];
        vec![(9, mixed), (3, wide), (2, vec![pack_head(1, 1, 0)])]
    }

    #[test]
    fn compiled_slots_reproduce_the_cursor_fill_word_for_word() {
        for (n, shape) in shapes() {
            for policy in [RelayPolicy::SingleHash, RelayPolicy::TwoChoice] {
                let drawn = RouteSchedule::build(n, 17, policy, false, shape.clone());
                let outboxes = numbered_outboxes(n, &shape);
                let oracle = cursor_fill(n, &drawn, &outboxes);
                let expected_bytes = drawn.compiled_bytes();
                let compiled = drawn.compile();
                assert_eq!(compiled.bytes(), expected_bytes, "n={n} {policy:?}");
                let Placement::Slots { a, b, .. } = &compiled.placement else {
                    panic!("compile leaves slots");
                };
                let b: Vec<usize> = match b {
                    Packed::U16(b) => b.iter().map(|&o| o.at()).collect(),
                    Packed::U32(b) => b.iter().map(|&o| o.at()).collect(),
                };
                assert_eq!(
                    matches!(
                        compiled.placement,
                        Placement::Slots {
                            b: Packed::U32(_),
                            ..
                        }
                    ),
                    n == 3
                );
                let a: Vec<usize> = a.iter().map(|&s| s.at()).collect();
                assert_eq!(a, oracle[0], "n={n} {policy:?}: phase-A slots");
                // Phase-B offsets count from the start of the destination's
                // row.
                let row_starts = offsets(compiled.loads[1].counts());
                let mut word = 0;
                for &head in &shape {
                    let (_, dst, len) = unpack_head(head);
                    for _ in 0..len {
                        assert_eq!(row_starts[dst * n] + b[word], oracle[1][word]);
                        word += 1;
                    }
                }
                // The slabs themselves are the cursor fill's, bit for bit,
                // and the delivery is the counting sort's.
                let again = RouteSchedule::build(n, 17, policy, false, shape.clone());
                for phase in 0..2 {
                    assert_eq!(
                        compiled.slab(phase, &outboxes),
                        again.slab(phase, &outboxes),
                        "n={n} {policy:?} phase {phase}"
                    );
                }
                assert_eq!(
                    compiled.delivery(&outboxes),
                    again.delivery(&outboxes),
                    "n={n} {policy:?} delivery"
                );
            }
        }
    }

    #[test]
    fn attached_loads_equal_the_loads_recounted_from_the_slab() {
        for (n, shape) in shapes() {
            for policy in [RelayPolicy::SingleHash, RelayPolicy::TwoChoice] {
                let drawn = RouteSchedule::build(n, 17, policy, false, shape.clone());
                let expected_bytes = drawn.compiled_bytes();
                let compiled = drawn.compile();
                assert_eq!(compiled.bytes(), expected_bytes, "n={n} {policy:?}");
                let outboxes = numbered_outboxes(n, &shape);
                let silent = vec![Vec::new(); n];
                for phase in 0..2 {
                    let mut slab = compiled.slab(phase, &outboxes);
                    slab.validate(n);
                    let attached = slab.take_loads().expect("every emitted slab carries loads");
                    let recounted = slab.link_loads(&silent);
                    let totals = |l: &LinkLoads| (l.rounds(), l.words());
                    assert_eq!(totals(&attached), totals(&recounted), "n={n} {policy:?}");
                    assert!(
                        attached.iter().eq(recounted.iter()),
                        "n={n} {policy:?} phase {phase}: canonical triples"
                    );
                }
            }
        }
    }

    #[test]
    fn a_payload_of_two_keeps_the_cursor_fill_and_its_headers() {
        let shape = vec![pack_head(0, 1, 2), pack_head(1, 1, 1)];
        let d = RouteSchedule::build(3, 4, RelayPolicy::TwoChoice, true, shape.clone());
        let outboxes = numbered_outboxes(3, &shape);
        for phase in 0..2 {
            let slab = d.slab(phase, &outboxes);
            assert_eq!(slab.total_words(), 6, "every word travels with its header");
        }
        assert_eq!(
            d.bytes(),
            std::mem::size_of::<RouteSchedule>() + 2 * 8 + 3 * 2 + 2 * 9 * 4
        );
    }

    #[test]
    fn one_shot_steps_build_no_tables() {
        // 13 · 60 000 one-word messages: 6.2 MB of shape and 1.6 MB of
        // relays fit the budget as drawn, but not with 4.7 MB of tables.
        let n = 13;
        let shape = (0..n).flat_map(|v| (0..60_000).map(move |k| pack_head(v, (v + k) % n, 1)));
        let s = RouteSchedule::cached(n, 0x0b16, RelayPolicy::TwoChoice, shape);
        assert!(s.bytes() <= SCHEDULE_CACHE_BYTES);
        assert!(s.compiled_bytes() > SCHEDULE_CACHE_BYTES);
        assert_eq!(relays(&s).len(), 13 * 60_000, "drawn, not compiled");
        assert_eq!(
            s.bytes(),
            std::mem::size_of::<RouteSchedule>() + 13 * 60_000 * (8 + 2) + 2 * n * n * 4,
            "resident: the shape, a u16 relay per word and two u32 load tables"
        );
        // A dynamic step is drawn with its headers and never compiled.
        let d = RouteSchedule::build(n, 1, RelayPolicy::TwoChoice, true, vec![pack_head(0, 1, 5)]);
        assert_eq!(relays(&d).len(), 5);
    }
}
