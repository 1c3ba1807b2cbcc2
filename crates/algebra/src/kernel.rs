//! Pluggable node-local matrix-multiply kernels.
//!
//! Every congested-clique algorithm in this workspace bottoms out in dense
//! node-local products — the step-4 term products of `fast_mm`, the block
//! products of `semiring_mm`, trace combines, bilinear evaluation. Those
//! products never touch the wire, so swapping how they are computed is
//! **observer-equivalent**: results, rounds, words, and pattern fingerprints
//! stay bit-identical across kernels, and only wall-clock (`*_ns`) moves.
//!
//! Three kernels are offered, selected by `CC_KERNEL` (parsed once per
//! process through `env_config`, warn-once on malformed values) or
//! programmatically with [`scoped`]:
//!
//! * `naive` — the schoolbook [`Matrix::mul`] reference; the explicit
//!   escape hatch reproducing the seed behaviour exactly;
//! * `blocked` — cache-blocked i-k-j tiles (tile edge from `CC_TILE`,
//!   default [`DEFAULT_TILE`]) for integer products, routing large square
//!   tiles through local Strassen above [`STRASSEN_ROUTE`];
//! * `bitset` — everything `blocked` does, plus bit-packed
//!   [`BitMatrix`] `AND`/`OR` products for the Boolean
//!   semiring (64 lanes per word, threshold-free).
//!
//! The **default is the auto-selecting `bitset` kernel** (spelled `auto` or
//! `bitset` in `CC_KERNEL`): blocked/Strassen tiles for integer products,
//! bit-packed words for Boolean ones — the fastest lane per ring now both
//! have soaked in CI. `CC_KERNEL=naive` pins the schoolbook reference.
//!
//! Integer reorderings are exact because `i64` addition is associative and
//! commutative, and local Strassen computes the same ring element; any
//! correct Boolean method returns the same booleans. Each dispatch emits a
//! `KernelDecision` telemetry event at `TraceLevel::Full`, mirroring the
//! executor's inline-vs-dispatched events.
//!
//! # ISA levels
//!
//! The tiled `i64` loop ([`mul_i64_blocked`], and with it every Strassen
//! leaf) is one `#[inline(always)]` body compiled three times: under
//! AVX-512 F + DQ + VL (`vpmullq`, a native 8-lane 64-bit multiply), under
//! AVX2, and for the build target's baseline (SSE2 on x86-64, which has no
//! vector 64-bit multiply). Each call runs the widest variant that
//! `std::is_x86_feature_detected!` finds on the running CPU; outside
//! x86-64 only the baseline body is compiled. The variants are
//! observer-equivalent to each other, not merely to the schoolbook
//! reference: they compile the same source, so every output element is
//! summed in the same k-ascending order, vector `i64` adds and multiplies
//! wrap exactly as the scalar ones do in a release build, and a debug
//! build keeps its overflow checks in all of them. There is no knob: the
//! CPU decides, and `CC_KERNEL`/`CC_TILE` keep their meaning.
//!
//! Rows narrower than 32 columns are the one shape where the body does
//! not stream the output row once per `k`: it holds them in 8-wide
//! register blocks across the k-tile instead. Streamed, a 16-column row
//! makes each `k` wait on the previous one's stores, and the AVX-512 build
//! then ran slower than the baseline.
//!
//! The witnessed min-plus product ([`minplus_witness`]) — the local work
//! of the 3D distance product and so of exact APSP — runs on the same
//! ladder. Its body works on *planes*: a row-major `i64` distance slice
//! with `i64::MAX` as `∞` (the raw form of [`Dist`](crate::Dist)) and a
//! separate `u64` plane of inner indices, each output row held in 8-wide
//! register blocks across every `k`. Its witness rule is the one the 3D
//! engine has always used: an `∞` entry of `S` is skipped; in each row,
//! the first finite `S[i][k]` writes `(S[i][k] + T[k][j], k)`
//! unconditionally, even where `T[k][j]` is `∞`; after that a later `k`
//! replaces an entry only with a strictly smaller candidate; a row of `S`
//! with no finite entry stays `(∞, u64::MAX)`. A candidate is `∞` if
//! `T[k][j]` is, else the plain `+` of `Dist`'s addition, so a debug build
//! keeps its overflow check. Min is exact and every variant compiles the
//! same source, visiting `k` in ascending order, so the variants return
//! the same planes bit for bit, `∞` entries and their witnesses included.
//! There is no knob for this either, and `CC_KERNEL` does not reach it.
//! The plain min-plus product (`MinPlus`'s `mul_dense`) is still the
//! schoolbook [`Matrix::mul`].
//!
//! Each body reaches its variants through one dispatch, `on_isa`, which
//! takes the body as an `#[inline(always)]` closure and runs it inside a
//! `#[target_feature]` trampoline per level. The closure must allocate
//! its output itself: one that borrows a caller's buffer compiled to a
//! narrower, slower loop in the AVX-512 trampoline.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::bitmatrix::BitMatrix;
use crate::matrix::Matrix;
use crate::semiring::{BoolSemiring, IntRing};
use crate::strassen::strassen_mul_with_base;

/// Default cache-block tile edge when `CC_TILE` is unset (entries per tile
/// side; 64×64 `i64` tiles are 32 KiB — comfortably L1/L2-resident).
pub const DEFAULT_TILE: usize = 64;

/// Square dimension at or above which the `blocked`/`bitset` kernels route
/// integer products through local Strassen ([`crate::strassen_mul`] with a
/// blocked base case).
pub const STRASSEN_ROUTE: usize = 256;

/// Which node-local multiply kernel to use. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Schoolbook [`Matrix::mul`] — the reference the other kernels must
    /// match bit for bit, kept as the explicit escape hatch
    /// (`CC_KERNEL=naive`).
    Naive,
    /// Cache-blocked i-k-j integer tiles with Strassen routing.
    Blocked,
    /// `Blocked` plus bit-packed Boolean products: the auto-selecting
    /// default — the fastest lane per ring (blocked/Strassen for integer
    /// products, bit-packed words for Boolean ones).
    #[default]
    Bitset,
}

impl Kernel {
    /// Parses a `CC_KERNEL` value. Matching is exact and lower-case;
    /// `auto` names the auto-selecting default ([`Kernel::Bitset`]).
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        match raw {
            "naive" => Some(Self::Naive),
            "blocked" => Some(Self::Blocked),
            "bitset" | "auto" => Some(Self::Bitset),
            _ => None,
        }
    }

    /// The knob spelling of this kernel.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Naive => "naive",
            Self::Blocked => "blocked",
            Self::Bitset => "bitset",
        }
    }

    /// The kernel in effect: a [`scoped`] override if one is active, else
    /// the process-wide `CC_KERNEL` resolution (read once, warn-once on
    /// malformed values, default the auto-selecting [`Kernel::Bitset`]).
    #[must_use]
    pub fn current() -> Self {
        match OVERRIDE.load(Ordering::Acquire) {
            1 => Self::Naive,
            2 => Self::Blocked,
            3 => Self::Bitset,
            _ => *env_kernel(),
        }
    }
}

fn env_kernel() -> &'static Kernel {
    static ENV_KERNEL: OnceLock<Kernel> = OnceLock::new();
    ENV_KERNEL.get_or_init(|| {
        cc_telemetry::env_config::from_env_or(
            "cc-algebra",
            "CC_KERNEL",
            "one of naive|blocked|bitset|auto",
            Kernel::default(),
            Kernel::parse,
        )
    })
}

/// The tile edge for blocked kernels: `CC_TILE` (a positive integer, read
/// once, warn-once on malformed values) or [`DEFAULT_TILE`].
#[must_use]
pub fn tile() -> usize {
    static TILE: OnceLock<usize> = OnceLock::new();
    *TILE.get_or_init(|| {
        cc_telemetry::env_config::from_env_or(
            "cc-algebra",
            "CC_TILE",
            "a positive integer tile edge",
            DEFAULT_TILE,
            |raw| raw.parse().ok().filter(|&t: &usize| t > 0),
        )
    })
}

/// Process-wide scoped override: 0 = none, else `Kernel as u8 + 1`.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// Holds a [`scoped`] kernel override; restores the previous selection on
/// drop.
#[derive(Debug)]
pub struct ScopedKernel {
    prev: u8,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ScopedKernel {
    fn drop(&mut self) {
        OVERRIDE.store(self.prev, Ordering::Release);
    }
}

/// Forces `kernel` for the lifetime of the returned guard, overriding the
/// `CC_KERNEL` environment resolution. Guards serialise on a process-wide
/// mutex so overlapping scopes cannot interleave; code on *other* threads
/// observes the override too, which is harmless because every kernel is
/// observer-equivalent. Intended for tests and benches that sweep the
/// kernel axis inside one process.
#[must_use]
pub fn scoped(kernel: Kernel) -> ScopedKernel {
    let lock = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let prev = OVERRIDE.swap(kernel as u8 + 1, Ordering::AcqRel);
    ScopedKernel { prev, _lock: lock }
}

/// Reports one kernel dispatch decision at `TraceLevel::Full` — the kernel
/// actually chosen, the operation, the (output-row) size, and the tile
/// edge. Observer-only and a single branch when tracing is off.
#[inline]
fn emit_decision(kernel: &'static str, op: &'static str, n: usize, tile: usize) {
    cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
        cc_telemetry::Event::KernelDecision {
            kernel,
            op,
            n,
            tile,
        }
    });
}

/// Node-local `i64` product under the current kernel. Bit-identical to
/// [`Matrix::mul`] over [`IntRing`] for every kernel.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn mul_i64(a: &Matrix<i64>, b: &Matrix<i64>) -> Matrix<i64> {
    match Kernel::current() {
        Kernel::Naive => {
            emit_decision("naive", "mul_i64", a.rows(), 0);
            Matrix::mul(&IntRing, a, b)
        }
        Kernel::Blocked | Kernel::Bitset => {
            let t = tile();
            if a.rows() >= STRASSEN_ROUTE && a.rows() == a.cols() && b.rows() == b.cols() {
                emit_decision("strassen", "mul_i64", a.rows(), t);
                mul_i64_strassen(a, b, t)
            } else {
                emit_decision("blocked", "mul_i64", a.rows(), t);
                mul_i64_blocked(a, b, t)
            }
        }
    }
}

/// Node-local Boolean product under the current kernel. Bit-identical to
/// [`Matrix::mul`] over [`BoolSemiring`] for every kernel.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn mul_bool(a: &Matrix<bool>, b: &Matrix<bool>) -> Matrix<bool> {
    match Kernel::current() {
        Kernel::Naive => {
            emit_decision("naive", "mul_bool", a.rows(), 0);
            Matrix::mul(&BoolSemiring, a, b)
        }
        Kernel::Blocked => {
            let t = tile();
            emit_decision("blocked", "mul_bool", a.rows(), t);
            mul_bool_blocked(a, b, t)
        }
        Kernel::Bitset => {
            emit_decision("bitset", "mul_bool", a.rows(), 0);
            mul_bool_bitset(a, b)
        }
    }
}

/// Min-plus product **with witnesses** on row-major
/// [distance planes](self#isa-levels): `s` is `rows × inner`, `t` is
/// `inner × cols`, `i64::MAX` is `∞`. Returns the distance plane and the
/// witness plane, both `rows × cols`; witnesses are inner indices offset by
/// `first_witness`, and `u64::MAX` where row `i` of `s` has no finite
/// entry. Runs on the widest [ISA level](self#isa-levels) the CPU supports
/// whatever the kernel selection: there is no second witness loop.
///
/// # Panics
///
/// Panics if the plane lengths do not match the dimensions.
#[must_use]
pub fn minplus_witness(
    s: &[i64],
    t: &[i64],
    dims: (usize, usize, usize),
    first_witness: u64,
) -> (Vec<i64>, Vec<u64>) {
    emit_decision("planes", "minplus_witness", dims.0, 0);
    minplus_witness_on(Isa::host(), s, t, dims, first_witness)
}

/// [`minplus_witness`] compiled for `isa`.
fn minplus_witness_on(
    isa: Isa,
    s: &[i64],
    t: &[i64],
    (rows, inner, cols): (usize, usize, usize),
    first_witness: u64,
) -> (Vec<i64>, Vec<u64>) {
    assert_eq!(s.len(), rows * inner, "left plane is not rows x inner");
    assert_eq!(t.len(), inner * cols, "right plane is not inner x cols");
    on_isa(
        isa,
        #[inline(always)]
        move || {
            let mut d = vec![INF; rows * cols];
            let mut w = vec![u64::MAX; rows * cols];
            if inner > 0 && cols > 0 {
                minplus_rows(s, t, inner, cols, first_witness, &mut d, &mut w);
            }
            (d, w)
        },
    )
}

/// `∞` in a distance plane: the raw value of [`INFINITY`](crate::INFINITY).
const INF: i64 = i64::MAX;

/// The loop of [`minplus_witness_on`], writing rows of `d` and `w` that
/// start as `(∞, u64::MAX)`. Inlined into every [`Isa`] variant. A row of
/// `s` with no finite entry is left as it is; otherwise its first finite
/// entry seeds the row and later ones relax it, one ascending `k` at a
/// time. Every row is split into [`LANES`]-wide chunks held in local arrays
/// across every `k`, like the narrow rows of [`tiled_i64`].
#[inline(always)]
fn minplus_rows(
    s: &[i64],
    t: &[i64],
    inner: usize,
    cols: usize,
    first_witness: u64,
    d: &mut [i64],
    w: &mut [u64],
) {
    let rows = d.chunks_mut(cols).zip(w.chunks_mut(cols));
    for (srow, (drow, wrow)) in s.chunks_exact(inner).zip(rows) {
        let Some(first) = srow.iter().position(|&x| x != INF) else {
            continue;
        };
        let cols_from = |j0: usize, dseg: &mut [i64], wseg: &mut [u64]| {
            relax(dseg, wseg, srow, first, t, cols, j0, first_witness);
        };
        let chunks = drow.chunks_mut(LANES).zip(wrow.chunks_mut(LANES));
        for (c, (dseg, wseg)) in chunks.enumerate() {
            if dseg.len() == LANES {
                let (mut dacc, mut wacc) = ([INF; LANES], [u64::MAX; LANES]);
                cols_from(c * LANES, &mut dacc, &mut wacc);
                dseg.copy_from_slice(&dacc);
                wseg.copy_from_slice(&wacc);
            } else {
                cols_from(c * LANES, dseg, wseg);
            }
        }
    }
}

/// Columns `j0..j0 + d.len()` of one output row from `srow` (whose first
/// finite entry is at `first`) and `t`. Entry `first` writes its candidate
/// and witness unconditionally, even an infinite candidate; each later
/// finite `srow[k]` replaces an entry only with a strictly smaller
/// candidate.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn relax(
    d: &mut [i64],
    w: &mut [u64],
    srow: &[i64],
    first: usize,
    t: &[i64],
    cols: usize,
    j0: usize,
    first_witness: u64,
) {
    let j1 = j0 + d.len();
    let tseg = |k: usize| &t[k * cols + j0..k * cols + j1];
    let sik = srow[first];
    for (dst, &tkj) in d.iter_mut().zip(tseg(first)) {
        *dst = candidate(sik, tkj);
    }
    w.fill(first_witness + first as u64);
    for (k, &sik) in srow.iter().enumerate().skip(first + 1) {
        if sik == INF {
            continue;
        }
        let wit = first_witness + k as u64;
        for ((dst, wdst), &tkj) in d.iter_mut().zip(w.iter_mut()).zip(tseg(k)) {
            let cand = candidate(sik, tkj);
            let better = cand < *dst;
            *dst = if better { cand } else { *dst };
            *wdst = if better { wit } else { *wdst };
        }
    }
}

/// `s + t` in the min-plus semiring for a finite `s`: `∞` if `t` is, else
/// the plain `+` of [`Dist`](crate::Dist)'s addition (overflow-checked in
/// debug builds).
#[inline(always)]
fn candidate(s: i64, t: i64) -> i64 {
    if t == INF {
        INF
    } else {
        s + t
    }
}

/// Cache-blocked i-k-j `i64` product: the `i` and `k` loops are tiled so a
/// `tile`-row strip of `b` is reused across a whole `tile`-row strip of
/// `a`, and the inner `j` loop streams output rows through a slice-zip
/// (vectorisable) multiply-add; rows narrower than 32 columns are held in
/// registers instead. The loop runs on the widest
/// [ISA level](self#isa-levels) the running CPU supports. Exact for any
/// summation order because `i64` addition is associative and commutative.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `tile == 0`.
#[must_use]
pub fn mul_i64_blocked(a: &Matrix<i64>, b: &Matrix<i64>, tile: usize) -> Matrix<i64> {
    mul_i64_blocked_on(Isa::host(), a, b, tile)
}

/// [`mul_i64_blocked`] with the loop body compiled for `isa`.
fn mul_i64_blocked_on(isa: Isa, a: &Matrix<i64>, b: &Matrix<i64>, tile: usize) -> Matrix<i64> {
    assert_eq!(a.cols(), b.rows(), "dimension mismatch in mul_i64_blocked");
    assert!(tile > 0, "tile edge must be positive");
    on_isa(
        isa,
        #[inline(always)]
        move || {
            let mut out = Matrix::filled(a.rows(), b.cols(), 0);
            tiled_i64(a, b, tile, &mut out);
            out
        },
    )
}

/// An instruction-set level the loop body of [`mul_i64_blocked`] is
/// compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512 F + DQ + VL: `vpmullq` is a native 8-lane 64-bit multiply.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2: 4 lanes, each 64-bit multiply built from 32-bit ones.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The build target's baseline (SSE2 on x86-64: no vector 64-bit
    /// multiply).
    Portable,
}

/// Every compiled variant, widest first: the order [`Isa::host`] tries
/// them in.
pub(crate) const ISA_VARIANTS: &[Isa] = &[
    #[cfg(target_arch = "x86_64")]
    Isa::Avx512,
    #[cfg(target_arch = "x86_64")]
    Isa::Avx2,
    Isa::Portable,
];

impl Isa {
    /// Whether the running CPU can execute this variant (a run-time check;
    /// `std` caches the CPUID probe, so this is a few atomic loads).
    pub(crate) fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512dq")
                    && std::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => std::is_x86_feature_detected!("avx2"),
            Self::Portable => true,
        }
    }

    /// The widest variant the running CPU supports.
    fn host() -> Self {
        ISA_VARIANTS
            .iter()
            .copied()
            .find(|isa| isa.supported())
            .unwrap_or(Self::Portable)
    }
}

/// Runs `body` compiled for `isa`: the one place cc-algebra calls code that
/// needs a CPU feature the build target does not promise. Every kernel body
/// reaches its [`Isa`] variants through here: `body` is a closure over an
/// `#[inline(always)]` loop, so each `#[target_feature]` trampoline below
/// inlines it and compiles the loop for that level.
///
/// # Panics
///
/// Panics if the running CPU does not support `isa`.
#[allow(unsafe_code)]
fn on_isa<R>(isa: Isa, body: impl FnOnce() -> R) -> R {
    assert!(isa.supported(), "{isa:?} is not supported by this CPU");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa.supported()` above detected avx512f, avx512dq and
        // avx512vl on the running CPU.
        Isa::Avx512 => unsafe { on_avx512(body) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa.supported()` above detected avx2 on the running CPU.
        Isa::Avx2 => unsafe { on_avx2(body) },
        Isa::Portable => body(),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn on_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn on_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Output columns one register block of [`tiled_i64`] holds: 8 `i64`
/// lanes, one 512-bit vector (two AVX2, four SSE2 registers).
const LANES: usize = 8;

/// Output rows at least this wide are streamed through memory; narrower
/// ones are accumulated in register blocks.
const STREAM_COLS: usize = 32;

/// The tiled loop of [`mul_i64_blocked`], accumulating into a zeroed `out`.
/// Inlined into every [`Isa`] variant, so each compiles the same source and
/// sums every output element in k-ascending order. Within a `tile × tile`
/// block of `a`, a wide output row takes every `k` term in one pass over
/// the row; a narrow one (fewer than [`STREAM_COLS`] columns, see the
/// [module docs](self#isa-levels)) is split into [`LANES`]-wide chunks,
/// each held in a local array (registers, once optimised) while all the
/// `k` terms are added into it.
#[inline(always)]
fn tiled_i64(a: &Matrix<i64>, b: &Matrix<i64>, tile: usize, out: &mut Matrix<i64>) {
    let (n, inner, m) = (a.rows(), a.cols(), b.cols());
    for i0 in (0..n).step_by(tile) {
        for k0 in (0..inner).step_by(tile) {
            let ke = (k0 + tile).min(inner);
            for i in i0..(i0 + tile).min(n) {
                let arow = &a.row(i)[k0..ke];
                let orow = out.row_mut(i);
                if m >= STREAM_COLS {
                    accumulate(orow, arow, b, k0, 0);
                    continue;
                }
                for (c, chunk) in orow.chunks_mut(LANES).enumerate() {
                    if let Ok(chunk) = <&mut [i64; LANES]>::try_from(&mut *chunk) {
                        let mut acc = *chunk;
                        accumulate(&mut acc, arow, b, k0, c * LANES);
                        *chunk = acc;
                    } else {
                        accumulate(chunk, arow, b, k0, c * LANES);
                    }
                }
            }
        }
    }
}

/// `acc += arow · b[k0.., j0..]`, one `k` at a time in ascending order,
/// skipping zero entries of `arow`.
#[inline(always)]
fn accumulate(acc: &mut [i64], arow: &[i64], b: &Matrix<i64>, k0: usize, j0: usize) {
    let j1 = j0 + acc.len();
    for (k, &aik) in arow.iter().enumerate() {
        if aik == 0 {
            continue;
        }
        for (dst, &src) in acc.iter_mut().zip(&b.row(k0 + k)[j0..j1]) {
            *dst += aik * src;
        }
    }
}

/// Local Strassen with a blocked base case: recursion from
/// [`crate::strassen_mul`], leaves multiplied by [`mul_i64_blocked`].
///
/// # Panics
///
/// Panics if the matrices are not square with equal dimensions.
#[must_use]
pub fn mul_i64_strassen(a: &Matrix<i64>, b: &Matrix<i64>, tile: usize) -> Matrix<i64> {
    strassen_mul_with_base(a, b, &|x, y| mul_i64_blocked(x, y, tile))
}

/// Cache-blocked Boolean product (same i/k tiling and slice-zip inner loop
/// as the integer kernel, `∨`/`∧` arithmetic, unpacked entries).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `tile == 0`.
#[must_use]
pub fn mul_bool_blocked(a: &Matrix<bool>, b: &Matrix<bool>, tile: usize) -> Matrix<bool> {
    assert_eq!(a.cols(), b.rows(), "dimension mismatch in mul_bool_blocked");
    assert!(tile > 0, "tile edge must be positive");
    let (n, inner, m) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![false; n * m];
    for i0 in (0..n).step_by(tile) {
        for k0 in (0..inner).step_by(tile) {
            let ke = (k0 + tile).min(inner);
            for i in i0..(i0 + tile).min(n) {
                let arow = a.row(i);
                let orow = &mut out[i * m..(i + 1) * m];
                for (k, &aik) in arow[k0..ke].iter().enumerate() {
                    if !aik {
                        continue;
                    }
                    for (dst, &src) in orow.iter_mut().zip(b.row(k0 + k)) {
                        *dst |= src;
                    }
                }
            }
        }
    }
    Matrix::from_fn(n, m, |i, j| out[i * m + j])
}

/// Bit-packed Boolean product: pack both operands into [`BitMatrix`] form,
/// multiply with word-wide `OR` lanes, unpack.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn mul_bool_bitset(a: &Matrix<bool>, b: &Matrix<bool>) -> Matrix<bool> {
    BitMatrix::from_matrix(a)
        .multiply(&BitMatrix::from_matrix(b))
        .to_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dist, MinPlus, INFINITY};

    fn rand_int(rows: usize, cols: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % 21) as i64 - 10
        })
    }

    fn rand_bool(rows: usize, cols: usize, seed: u64) -> Matrix<bool> {
        rand_int(rows, cols, seed).map(|&x| x > 0)
    }

    #[test]
    fn parse_grammar_is_exact() {
        assert_eq!(Kernel::parse("naive"), Some(Kernel::Naive));
        assert_eq!(Kernel::parse("blocked"), Some(Kernel::Blocked));
        assert_eq!(Kernel::parse("bitset"), Some(Kernel::Bitset));
        assert_eq!(Kernel::parse("auto"), Some(Kernel::Bitset));
        assert_eq!(Kernel::parse("Bitset"), None);
        assert_eq!(Kernel::parse("Auto"), None);
        assert_eq!(Kernel::parse(""), None);
        for k in [Kernel::Naive, Kernel::Blocked, Kernel::Bitset] {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
    }

    #[test]
    fn default_is_the_auto_selecting_bitset_kernel() {
        assert_eq!(Kernel::default(), Kernel::Bitset);
        assert_eq!(Kernel::parse("auto"), Some(Kernel::default()));
    }

    #[test]
    fn scoped_override_nests_and_restores() {
        {
            let _g = scoped(Kernel::Blocked);
            assert_eq!(Kernel::current(), Kernel::Blocked);
        }
        let before = Kernel::current();
        {
            let _g = scoped(Kernel::Bitset);
            assert_eq!(Kernel::current(), Kernel::Bitset);
        }
        assert_eq!(Kernel::current(), before);
    }

    #[test]
    fn int_kernels_match_schoolbook_at_ragged_sizes() {
        for (rows, inner, cols) in [(1, 1, 1), (7, 63, 5), (64, 64, 64), (65, 130, 33)] {
            let a = rand_int(rows, inner, rows as u64);
            let b = rand_int(inner, cols, cols as u64);
            let naive = Matrix::mul(&IntRing, &a, &b);
            for t in [1, 5, 64, 1000] {
                assert_eq!(mul_i64_blocked(&a, &b, t), naive, "tile={t}");
            }
            if rows == inner && inner == cols {
                assert_eq!(mul_i64_strassen(&a, &b, 64), naive);
            }
        }
    }

    #[test]
    fn every_isa_variant_matches_the_portable_body() {
        let shapes = [
            (1, 1, 1),
            (7, 63, 5),
            (16, 16, 16),
            (32, 32, 32),
            (33, 33, 33),
            (64, 64, 64),
            (65, 130, 33),
            // Two register blocks and a ragged one.
            (9, 20, 21),
        ];
        // 0/1 entries, entries in [-8, 8], and the latter with every third
        // row zeroed (the `aik == 0` skip on `a`, zero rows of `b` too).
        let operands = |rows: usize, cols: usize, seed: u64| {
            let small = rand_int(rows, cols, seed).map(|&x| x.clamp(-8, 8));
            [
                rand_int(rows, cols, seed).map(|&x| i64::from(x > 0)),
                small.clone(),
                small.map_indexed(|i, _, &x| if i % 3 == 0 { 0 } else { x }),
            ]
        };
        let variants: Vec<Isa> = ISA_VARIANTS
            .iter()
            .copied()
            .filter(|isa| isa.supported())
            .collect();
        assert_eq!(variants.last(), Some(&Isa::Portable));
        for (rows, inner, cols) in shapes {
            let lhs = operands(rows, inner, 20 + rows as u64);
            let rhs = operands(inner, cols, 40 + cols as u64);
            for (a, b) in lhs.iter().zip(&rhs) {
                let naive = Matrix::mul(&IntRing, a, b);
                for t in [1, 5, 64, 1000] {
                    let portable = mul_i64_blocked_on(Isa::Portable, a, b, t);
                    assert_eq!(portable, naive, "{rows}x{inner}x{cols} tile={t}");
                    for &isa in &variants {
                        assert_eq!(
                            mul_i64_blocked_on(isa, a, b, t),
                            portable,
                            "{isa:?} {rows}x{inner}x{cols} tile={t}"
                        );
                    }
                }
            }
        }
        // Release builds wrap on overflow, and every variant must wrap
        // exactly as the portable body does (debug builds panic instead).
        if !cfg!(debug_assertions) {
            let a = rand_int(33, 33, 7).map(|&x| x.wrapping_mul(i64::MAX / 3));
            let b = rand_int(33, 33, 8).map(|&x| x.wrapping_mul(0x0123_4567_89ab_cdef));
            let portable = mul_i64_blocked_on(Isa::Portable, &a, &b, 5);
            for &isa in &variants {
                assert_eq!(mul_i64_blocked_on(isa, &a, &b, 5), portable, "{isa:?}");
            }
        }
    }

    /// The witness loop `semiring_mm` ran on `(Dist, usize)` entries before
    /// the distance planes, kept as the reference they must reproduce.
    fn witness_reference(
        s: &Matrix<Dist>,
        t: &Matrix<Dist>,
        inner_start: usize,
    ) -> Matrix<(Dist, usize)> {
        let mut prod = Matrix::filled(s.rows(), t.cols(), (INFINITY, usize::MAX));
        for i in 0..s.rows() {
            for k in 0..s.cols() {
                let sik = s[(i, k)];
                if !sik.is_finite() {
                    continue;
                }
                for j in 0..t.cols() {
                    let cand = sik + t[(k, j)];
                    let cur = prod[(i, j)];
                    let wit = inner_start + k;
                    if cand < cur.0 || (cand == cur.0 && wit < cur.1) {
                        prod[(i, j)] = (cand, wit);
                    }
                }
            }
        }
        prod
    }

    /// Entries in [-4, 4] (negatives, many ties), finite with probability
    /// `density` percent, else `∞`.
    fn rand_dist(rows: usize, cols: usize, density: u64, seed: u64) -> Matrix<Dist> {
        let mut s = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (s >> 40) % 100 < density {
                Dist::finite(((s >> 33) % 9) as i64 - 4)
            } else {
                INFINITY
            }
        })
    }

    fn plane(m: &Matrix<Dist>) -> Vec<i64> {
        (0..m.rows())
            .flat_map(|i| m.row(i).iter().map(Dist::raw))
            .collect()
    }

    #[test]
    fn every_isa_variant_matches_the_minplus_reference() {
        let shapes = [
            (1, 1, 1),
            (16, 16, 16),
            (5, 7, 3),
            // Two register blocks and a ragged one.
            (9, 20, 21),
            // Rows of five register blocks.
            (33, 17, 40),
            // No inner index: every entry stays (∞, u64::MAX).
            (4, 0, 5),
            // No output column.
            (3, 4, 0),
        ];
        let variants: Vec<Isa> = ISA_VARIANTS
            .iter()
            .copied()
            .filter(|isa| isa.supported())
            .collect();
        let first_witness = 7;
        for (rows, inner, cols) in shapes {
            for density in [0, 20, 50, 90, 100] {
                let seed = 100 * density + rows as u64;
                let mut s = rand_dist(rows, inner, density, seed);
                let mut t = rand_dist(inner, cols, density, seed + 1);
                // An all-∞ row of S and an all-∞ column of T.
                if rows > 1 && inner > 0 {
                    s = s.map_indexed(|i, _, &x| if i == rows / 2 { INFINITY } else { x });
                }
                if cols > 1 && inner > 0 {
                    t = t.map_indexed(|_, j, &x| if j == cols / 2 { INFINITY } else { x });
                }
                let reference = witness_reference(&s, &t, first_witness as usize);
                let product = Matrix::mul(&MinPlus, &s, &t);
                let dims = (rows, inner, cols);
                for &isa in &variants {
                    let case = format!("{isa:?} {rows}x{inner}x{cols} density={density}");
                    let (d, w) =
                        minplus_witness_on(isa, &plane(&s), &plane(&t), dims, first_witness);
                    let got = Matrix::from_fn(rows, cols, |i, j| {
                        (Dist::from_raw(d[i * cols + j]), w[i * cols + j] as usize)
                    });
                    assert_eq!(got, reference, "witness product, {case}");
                    assert_eq!(plane(&product), d, "distances, {case}");
                }
            }
        }
    }

    #[test]
    fn bool_kernels_match_schoolbook_at_ragged_sizes() {
        for (rows, inner, cols) in [(1, 1, 1), (7, 63, 5), (64, 64, 64), (65, 130, 33)] {
            let a = rand_bool(rows, inner, 3 + rows as u64);
            let b = rand_bool(inner, cols, 3 + cols as u64);
            let naive = Matrix::mul(&BoolSemiring, &a, &b);
            for t in [1, 7, 64, 1000] {
                assert_eq!(mul_bool_blocked(&a, &b, t), naive, "tile={t}");
            }
            assert_eq!(mul_bool_bitset(&a, &b), naive);
            // `a · I = a`: an inner index a kernel skips empties a column,
            // which the OR over dense random operands hides.
            let id = Matrix::from_fn(inner, inner, |i, j| i == j);
            for t in [1, 7, 64, 1000] {
                assert_eq!(mul_bool_blocked(&a, &id, t), a, "identity, tile={t}");
            }
            assert_eq!(mul_bool_bitset(&a, &id), a, "identity");
        }
    }

    #[test]
    fn dispatch_is_kernel_invariant() {
        let a = rand_int(40, 40, 11);
        let b = rand_int(40, 40, 12);
        let ba = rand_bool(40, 40, 13);
        let bb = rand_bool(40, 40, 14);
        let (iref, bref) = (
            Matrix::mul(&IntRing, &a, &b),
            Matrix::mul(&BoolSemiring, &ba, &bb),
        );
        let id = Matrix::from_fn(40, 40, |i, j| i == j);
        for k in [Kernel::Naive, Kernel::Blocked, Kernel::Bitset] {
            let _g = scoped(k);
            assert_eq!(mul_i64(&a, &b), iref, "{}", k.name());
            assert_eq!(mul_bool(&ba, &bb), bref, "{}", k.name());
            assert_eq!(mul_bool(&ba, &id), ba, "{} times identity", k.name());
        }
    }
}
