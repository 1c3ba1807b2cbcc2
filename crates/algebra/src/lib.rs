//! # cc-algebra: algebraic structures for congested clique algorithms
//!
//! The algorithms of *"Algebraic Methods in the Congested Clique"* operate on
//! matrices over several algebraic structures:
//!
//! * the **Boolean semiring** (`{0,1}`, ∨, ∧) — reachability, cycle
//!   detection, Seidel's base products;
//! * the **min-plus (tropical) semiring** (`ℤ ∪ {∞}`, min, +) — distance
//!   products and all-pairs shortest paths;
//! * the **ring of integers** — fast (Strassen-style) multiplication, trace
//!   counting formulas;
//! * the **degree-capped polynomial ring** `ℤ[x]/x^cap` — the embedding of
//!   bounded distance products into ring products (Lemma 18 of the paper).
//!
//! Structures are modelled as *structure objects* implementing [`Semiring`]
//! (and [`Ring`] where subtraction exists) over an associated element type,
//! so that runtime-parameterised structures like [`PolyRing`] fit the same
//! interface. Dense [`Matrix`] values are structure-agnostic containers;
//! operations such as [`Matrix::mul`] take the structure as an argument.
//!
//! Bilinear matrix-multiplication algorithms (Strassen's 7-multiplication
//! scheme and its tensor powers) are first-class values of type
//! [`BilinearAlgorithm`], which is exactly the form the paper's fast
//! distributed multiplication (Section 2.2) consumes.
//!
//! [`BitMatrix`], [`BoolSemiring`]'s `mul_dense`, [`Kernel`] and
//! [`kernel::tile`] are pinned by `benchmark/`'s `local-mm` workload and
//! `algebra.*_us.*` probes, so the Boolean kernels stay as they are until a
//! `[benchmark]` PR decides them (ROADMAP item 4).
//!
//! ## Example
//!
//! ```rust
//! use cc_algebra::{BilinearAlgorithm, IntRing, Matrix};
//!
//! let strassen = BilinearAlgorithm::strassen();
//! assert_eq!((strassen.d(), strassen.m()), (2, 7));
//!
//! let a = Matrix::from_rows(&[[1i64, 2], [3, 4]]);
//! let b = Matrix::from_rows(&[[5i64, 6], [7, 8]]);
//! let via_strassen = strassen.apply(&IntRing, &a, &b);
//! assert_eq!(via_strassen, Matrix::mul(&IntRing, &a, &b));
//! ```

// `deny` rather than `forbid`: the tiled `i64` kernel and the min-plus
// distance-plane kernel (`kernel.rs`) are compiled per ISA level, and
// calling a `#[target_feature]` function is unsafe. One audited dispatch
// function serves both bodies and opts in, after a run-time feature check.
// Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bilinear;
mod bitmatrix;
pub mod kernel;
mod matrix;
mod minplus;
mod modular;
mod poly;
mod semiring;
mod strassen;

pub use crate::bilinear::BilinearAlgorithm;
pub use crate::bitmatrix::BitMatrix;
pub use crate::kernel::Kernel;
pub use crate::matrix::Matrix;
pub use crate::minplus::{Dist, MinPlus, INFINITY};
pub use crate::modular::ModRing;
pub use crate::poly::{CappedPoly, PolyRing};
pub use crate::semiring::{BoolSemiring, IntRing, Ring, Semiring};
pub use crate::strassen::{strassen_mul, strassen_mul_with_base, StrassenBase, STRASSEN_CUTOFF};
