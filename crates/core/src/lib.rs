//! # cc-core: matrix multiplication in the congested clique
//!
//! This crate implements the primary contribution of *"Algebraic Methods in
//! the Congested Clique"* (PODC 2015): matrix multiplication algorithms for
//! the congested clique and the distance-product machinery built on them.
//!
//! * [`semiring_mm`] — the **3D algorithm** (paper §2.1): `O(n^{1/3})`-round
//!   multiplication over any semiring, by partitioning the `n³`
//!   element-multiplications into `n` subcubes.
//! * [`fast_mm`] — the **fast bilinear algorithm** (paper §2.2):
//!   `O(n^{1-2/σ})`-round multiplication over rings, parameterised by any
//!   [`cc_algebra::BilinearAlgorithm`] with `m = O(d^σ)` multiplications
//!   (Strassen and its tensor powers here; the paper's `ω < 2.373` bounds
//!   come from laser-method constructions that prove such algorithms exist
//!   without writing down a tensor small enough to execute).
//! * [`distance`] — min-plus (distance) products: exact via the 3D
//!   algorithm, weight-capped via the polynomial-ring embedding (Lemma 18),
//!   and `(1+δ)`-approximate via weight scaling (Lemma 20).
//! * [`witness`] — witness matrices for distance products (paper §3.4),
//!   enabling routing-table construction.
//! * [`boolean`] — Boolean semiring products through the integer fast path.
//!
//! ## Sparse & rectangular MM (Le Gall, PODC 2016)
//!
//! The follow-up paper *"Further Algebraic Algorithms in the Congested
//! Clique Model"* (Le Gall, 2016) shows the clique rewards structure the
//! Theorem 1 engines cannot see:
//!
//! * [`sparse_mm`] — nnz-aware multiplication over any semiring: a census
//!   makes the per-index nonzero counts global, a [`SparsePlan`] spreads
//!   the `W = Σ_k nnz(col_k S)·nnz(row_k T)` elementary products over
//!   helper grids, and costs scale with `W/n` instead of the dense
//!   `n^{1/3}`-and-up round counts — plus density-dispatching front doors
//!   ([`sparse_mm::multiply_auto`], [`sparse_mm::multiply_auto_ring`],
//!   [`sparse_mm::distance_product_with_witness_auto`]) that fall back to
//!   [`semiring_mm`] / [`fast_mm`] when sparsity doesn't pay. The
//!   explicit sparse entry points run on dense inputs too:
//!   `sparse_and_rect_mm_are_executor_independent` in
//!   `tests/runtime_determinism.rs` checks them there.
//! * [`rect_mm`] — `n × m · m × n` products ([`RectMatrix`]): a thin inner
//!   dimension is priced as extreme sparsity (padded inner indices get no
//!   helpers), a wide one is summed in `⌈m/n⌉` dispatched slabs.
//!
//! Matrices live in the paper's input convention: node `v` holds **row `v`**
//! of each operand and ends with row `v` of the product ([`RowMatrix`]).
//!
//! ## Example
//!
//! ```rust
//! use cc_algebra::{IntRing, Matrix};
//! use cc_clique::Clique;
//! use cc_core::{semiring_mm, RowMatrix};
//!
//! let n = 8;
//! let a = Matrix::from_fn(n, n, |i, j| ((i + j) % 3) as i64);
//! let b = Matrix::from_fn(n, n, |i, j| ((2 * i + j) % 5) as i64);
//! let mut clique = Clique::new(n);
//! let product = semiring_mm::multiply(
//!     &mut clique,
//!     &IntRing,
//!     &RowMatrix::from_matrix(&a),
//!     &RowMatrix::from_matrix(&b),
//! );
//! assert_eq!(product.to_matrix(), Matrix::mul(&IntRing, &a, &b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boolean;
pub mod distance;
pub mod fast_mm;
mod fast_plan;
mod plan3d;
pub mod rect_mm;
mod row_matrix;
pub mod semiring_mm;
pub mod sparse_mm;
mod sparse_plan;
pub mod witness;

pub use crate::fast_plan::FastPlan;
pub use crate::plan3d::Plan3d;
pub use crate::rect_mm::RectMatrix;
pub use crate::row_matrix::RowMatrix;
pub use crate::sparse_plan::{HelperGrid, SparsePlan};
