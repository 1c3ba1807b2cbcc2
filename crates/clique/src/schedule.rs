//! Relay schedules of the balanced router: drawn once per message shape,
//! kept in a process-wide cache bounded by bytes.

use crate::clique::RelayPolicy;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

/// Byte budget of the process-wide schedule cache. A fast product at
/// n = 128 needs ≈ 0.25 MB per routed step (two bytes per routed word plus
/// two `n²` load tables), so the budget holds every step of the plans a
/// process alternates between up to n ≈ 256; beyond that steps are drawn
/// per call, as they were before the cache existed.
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

/// The relay of every word of one routed step, and the per-link word counts
/// of its two phases: everything [`crate::Clique::route`] needs to scatter
/// the step's words onto the fabric without drawing a single hash.
#[derive(Debug)]
pub(crate) struct RouteSchedule {
    /// The shape this schedule was drawn for ([`pack_head`] per message).
    shape: Vec<u64>,
    /// One relay per word, in shape order.
    relays: Vec<u16>,
    /// Words per link, headers included, laid out like the slabs they size:
    /// phase A `[relay * n + src]`, phase B `[dst * n + relay]`.
    loads: [Vec<u32>; 2],
}

impl RouteSchedule {
    /// Draws the schedule of one step: a relay for each word, balancing both
    /// the (src → relay) and (relay → dst) phases. Relays are drawn by a
    /// deterministic hash with power-of-two-choices (the less loaded of two
    /// candidates), which keeps per-link loads within a small constant of
    /// the ideal ⌈load/n⌉ — the guarantee of the routing schemes the paper
    /// invokes. `payload` is the words each routed word occupies on a link
    /// (2 when it travels with a destination header).
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
        payload: u32,
        shape: Vec<u64>,
    ) -> Self {
        assert!(n <= 1 << 16, "relays are stored as u16 (n = {n})");
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
            shape,
            relays,
            loads: [a_load, b_load],
        }
    }

    /// The schedule of an oblivious step: fetched from the process-wide
    /// cache when a step with the same `(n, seed, policy)` and the same
    /// shape — compared in full, message by message — was routed before,
    /// drawn and inserted otherwise.
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
        // the comparison below decides.
        let candidate = cache().touch(&key);
        if let Some(hit) = candidate.filter(|s| shape.clone().eq(s.shape.iter().copied())) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(Self::build(n, seed, policy, 1, shape.collect()));
        cache().insert(key, built.clone());
        built
    }

    /// One relay per word, in shape order.
    pub(crate) fn relays(&self) -> &[u16] {
        &self.relays
    }

    /// Words per link of phase `phase` (0: src → relay, 1: relay → dst), as
    /// the counts a `SlabWriter` is sized from.
    pub(crate) fn link_counts(&self, phase: usize) -> Vec<usize> {
        self.loads[phase].iter().map(|&c| c as usize).collect()
    }

    /// What the schedule keeps resident.
    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(&self.shape[..])
            + std::mem::size_of_val(&self.relays[..])
            + self
                .loads
                .iter()
                .map(|l| std::mem::size_of_val(&l[..]))
                .sum::<usize>()
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
    /// evicting least-recently-used entries until it fits. A schedule larger
    /// than the whole budget is not stored: its caller uses it once.
    fn insert(&mut self, key: Key, schedule: Arc<RouteSchedule>) {
        if let Some(stamp) = self.stamps.remove(&key) {
            let (_, old) = self.by_age.remove(&stamp).expect("stamps index by_age");
            self.bytes -= old.bytes();
        }
        let size = schedule.bytes();
        if size > SCHEDULE_CACHE_BYTES {
            return;
        }
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

    #[test]
    fn build_restarts_the_word_index_per_message_and_skips_empty_ones() {
        // Two messages on one (src, dst) pair draw the same relays word for
        // word; an empty message in between draws nothing.
        let shape = vec![pack_head(0, 1, 3), pack_head(2, 2, 0), pack_head(0, 1, 3)];
        let s = RouteSchedule::build(5, 9, RelayPolicy::SingleHash, 1, shape);
        assert_eq!(s.relays.len(), 6);
        assert_eq!(s.relays[..3], s.relays[3..]);
        for phase in 0..2 {
            assert_eq!(s.link_counts(phase).iter().sum::<usize>(), 6);
        }
        // Headers double every link's load, not the number of draws.
        let d = RouteSchedule::build(5, 9, RelayPolicy::SingleHash, 2, vec![pack_head(0, 1, 3)]);
        assert_eq!(d.relays.len(), 3);
        assert_eq!(d.link_counts(0).iter().sum::<usize>(), 6);
    }
}
