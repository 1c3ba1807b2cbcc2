//! Distributed trace computations shared by the counting formulas.
//!
//! The counting corollaries need traces of small powers of the adjacency
//! matrix. Computing `tr(Aᵏ)` does not require materialising `Aᵏ`: with the
//! rows of `A^⌈k/2⌉` and `A^⌊k/2⌋` distributed, one transpose exchange
//! (a single round — each ordered pair carries exactly one entry) and a
//! broadcast-sum reduce the trace, since
//! `tr(X·Y) = Σ_{u,v} X[u][v] · Y[v][u]`.

use cc_clique::{Clique, Outbox};
use cc_core::RowMatrix;

/// Transposes a row-distributed integer matrix: node `v` sends entry
/// `M[v][u]` to node `u`, one word per ordered pair — exactly one round.
/// Message generation and row reassembly are per-node work evaluated on the
/// clique's configured executor.
pub fn transpose(clique: &mut Clique, m: &RowMatrix<i64>) -> RowMatrix<i64> {
    let n = clique.n();
    let inbox = clique.phase("transpose", |c| {
        c.exchange_par(|v| {
            let mut out = Outbox::with_capacity(n - 1, n - 1);
            for (u, &e) in m.row(v).iter().enumerate().filter(|&(u, _)| u != v) {
                out.message(u).push(e as u64);
            }
            out
        })
    });
    // Node u heard one word from every other node, in source order: its
    // delivered row is its transposed row without the diagonal.
    let rows = clique.executor().map(n, |u| {
        let heard = inbox.row(u);
        assert_eq!(heard.len(), n - 1, "node {u} must hear one entry per peer");
        let (before, after) = heard.split_at(u);
        let mut row = Vec::with_capacity(n);
        row.extend(before.iter().map(|&w| w as i64));
        row.push(m.row(u)[u]);
        row.extend(after.iter().map(|&w| w as i64));
        row
    });
    RowMatrix::from_rows(rows)
}

/// Computes `tr(X·Y) = Σ_{u,v} X[u][v]·Y[v][u]` for row-distributed integer
/// matrices: one transpose round plus one broadcast round (each node's dot
/// product runs on the executor before the broadcast).
pub fn trace_of_product(clique: &mut Clique, x: &RowMatrix<i64>, y: &RowMatrix<i64>) -> i64 {
    let n = clique.n();
    let yt = transpose(clique, y);
    let dots = clique.executor().map(n, |u| {
        (0..n).map(|v| x.row(u)[v] * yt.row(u)[v]).sum::<i64>()
    });
    clique.sum_all(|u| dots[u])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_algebra::{IntRing, Matrix};

    fn rand_matrix(n: usize, seed: u64) -> Matrix<i64> {
        let mut st = seed;
        Matrix::from_fn(n, n, |_, _| {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((st >> 33) % 7) as i64 - 3
        })
    }

    #[test]
    fn transpose_is_correct_and_single_round() {
        let n = 10;
        let m = rand_matrix(n, 3);
        let mut clique = Clique::new(n);
        let t = transpose(&mut clique, &RowMatrix::from_matrix(&m));
        assert_eq!(t.to_matrix(), m.transpose());
        assert_eq!(clique.rounds(), 1);
    }

    #[test]
    fn trace_of_product_matches_local() {
        let n = 9;
        let x = rand_matrix(n, 5);
        let y = rand_matrix(n, 6);
        let mut clique = Clique::new(n);
        let got = trace_of_product(
            &mut clique,
            &RowMatrix::from_matrix(&x),
            &RowMatrix::from_matrix(&y),
        );
        let local = Matrix::mul(&IntRing, &x, &y).trace(&IntRing);
        assert_eq!(got, local);
        assert_eq!(clique.rounds(), 2, "transpose + broadcast");
    }
}
