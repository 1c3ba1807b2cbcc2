//! The [`Graph`] type: directed or undirected, optionally weighted.

use cc_algebra::{Dist, Matrix, INFINITY};
use std::collections::BTreeMap;

/// A simple graph (no self-loops, no parallel edges) with integer edge
/// weights, directed or undirected.
///
/// Node identifiers are `0..n`. For undirected graphs an edge `{u, v}` is
/// stored in both adjacency maps; for directed graphs `adj` holds out-edges
/// and `radj` in-edges. Adjacency uses ordered maps so that all iteration is
/// deterministic.
///
/// # Examples
///
/// ```rust
/// use cc_graph::Graph;
/// let mut g = Graph::undirected(4);
/// g.add_edge(0, 1);
/// g.add_weighted_edge(1, 2, 5);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.weight(1, 0), Some(1));
/// assert_eq!(g.weight(2, 1), Some(5));
/// assert_eq!(g.weight(0, 3), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    directed: bool,
    adj: Vec<BTreeMap<usize, i64>>,
    radj: Vec<BTreeMap<usize, i64>>,
    m: usize,
}

impl Graph {
    /// An undirected graph on `n` isolated nodes.
    #[must_use]
    pub fn undirected(n: usize) -> Self {
        Self {
            n,
            directed: false,
            adj: vec![BTreeMap::new(); n],
            radj: vec![BTreeMap::new(); n],
            m: 0,
        }
    }

    /// A directed graph on `n` isolated nodes.
    #[must_use]
    pub fn directed(n: usize) -> Self {
        Self {
            n,
            directed: true,
            adj: vec![BTreeMap::new(); n],
            radj: vec![BTreeMap::new(); n],
            m: 0,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (each undirected edge counted once).
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// `true` for directed graphs.
    #[must_use]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Adds an edge of weight 1. For undirected graphs the edge is symmetric.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.add_weighted_edge(u, v, 1);
    }

    /// Adds an edge with an explicit weight.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn add_weighted_edge(&mut self, u: usize, v: usize, w: i64) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range (n={})",
            self.n
        );
        assert_ne!(u, v, "self-loops are not supported");
        let fresh = self.adj[u].insert(v, w).is_none();
        assert!(fresh, "duplicate edge ({u},{v})");
        self.radj[v].insert(u, w);
        if !self.directed {
            self.adj[v].insert(u, w);
            self.radj[u].insert(v, w);
        }
        self.m += 1;
    }

    /// Whether the edge `u → v` (or `{u, v}` if undirected) exists.
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains_key(&v)
    }

    /// The weight of edge `u → v`, if present.
    #[must_use]
    pub fn weight(&self, u: usize, v: usize) -> Option<i64> {
        self.adj[u].get(&v).copied()
    }

    /// Out-neighbours of `v` (all neighbours for undirected graphs), in
    /// increasing order.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[v].keys().copied()
    }

    /// In-neighbours of `v` (same as [`Graph::neighbors`] for undirected
    /// graphs), in increasing order.
    pub fn in_neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.radj[v].keys().copied()
    }

    /// Out-degree of `v` (degree for undirected graphs).
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Number of nodes `u` with edges in **both** directions between `u` and
    /// `v`; the `δ(v)` of the paper's directed 4-cycle counting formula.
    /// Equals the degree for undirected graphs.
    #[must_use]
    pub fn mutual_degree(&self, v: usize) -> usize {
        self.adj[v]
            .keys()
            .filter(|&&u| self.radj[v].contains_key(&u))
            .count()
    }

    /// Edge list; for undirected graphs each edge appears once with
    /// `u < v`.
    #[must_use]
    pub fn edges(&self) -> Vec<(usize, usize, i64)> {
        let mut out = Vec::with_capacity(self.m);
        for u in 0..self.n {
            for (&v, &w) in &self.adj[u] {
                if self.directed || u < v {
                    out.push((u, v, w));
                }
            }
        }
        out
    }

    /// Row `u` of an `n`-column matrix over this graph: `present(v, w)` at
    /// every out-neighbour `v` of `u` (`w` the edge weight), `absent` at
    /// every other column, the diagonal included (graphs have no
    /// self-loops, so a caller that wants a diagonal entry sets it).
    ///
    /// Built from `u`'s neighbour list in `O(n + deg(u))`, where `n`
    /// [`Graph::has_edge`] / [`Graph::weight`] lookups would each walk a
    /// tree map: this is the one way the crates tabulate a graph's rows.
    ///
    /// # Examples
    ///
    /// ```rust
    /// use cc_graph::Graph;
    /// let mut g = Graph::directed(4);
    /// g.add_weighted_edge(1, 3, 7);
    /// g.add_edge(1, 0);
    /// assert_eq!(g.out_row(1, 0, |_, _| 1), vec![1, 0, 0, 1]);
    /// assert_eq!(g.out_row(1, None, |_, w| Some(w)), vec![Some(1), None, None, Some(7)]);
    /// assert_eq!(g.out_row(3, false, |_, _| true), vec![false; 4]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn out_row<T: Clone>(
        &self,
        u: usize,
        absent: T,
        present: impl Fn(usize, i64) -> T,
    ) -> Vec<T> {
        let mut row = vec![absent; self.n];
        for (&v, &w) in &self.adj[u] {
            row[v] = present(v, w);
        }
        row
    }

    /// The `n × n` matrix whose row `u` is [`Graph::out_row`]`(u, ..)`.
    fn tabulate<T: Clone>(&self, absent: T, present: impl Fn(usize, i64) -> T) -> Matrix<T> {
        let rows: Vec<Vec<T>> = (0..self.n)
            .map(|u| self.out_row(u, absent.clone(), &present))
            .collect();
        Matrix::from_rows(&rows)
    }

    /// 0/1 adjacency matrix over the integers (undirected edges oriented
    /// both ways, as in the paper's Section 3.1).
    #[must_use]
    pub fn adjacency_matrix(&self) -> Matrix<i64> {
        self.tabulate(0, |_, _| 1)
    }

    /// Boolean adjacency matrix.
    #[must_use]
    pub fn bool_adjacency(&self) -> Matrix<bool> {
        self.tabulate(false, |_, _| true)
    }

    /// The weight matrix `W` of Section 3.3: `0` on the diagonal, the edge
    /// weight where an edge exists, and `∞` elsewhere.
    #[must_use]
    pub fn weight_matrix(&self) -> Matrix<Dist> {
        let mut w = self.tabulate(INFINITY, |_, w| Dist::finite(w));
        for u in 0..self.n {
            w.row_mut(u)[u] = Dist::zero();
        }
        w
    }

    /// Largest edge weight, or `None` for an edgeless graph.
    #[must_use]
    pub fn max_weight(&self) -> Option<i64> {
        self.edges().iter().map(|&(_, _, w)| w).max()
    }

    /// A deterministic 64-bit content fingerprint: two graphs have equal
    /// fingerprints exactly when they have the same node count, direction,
    /// and weighted edge set (up to the astronomically unlikely hash
    /// collision). Unlike `Hash`-derived values this is stable across
    /// processes and runs — no per-process `RandomState` — so it can key
    /// registries and result caches that promise bit-identical replay
    /// (the `cc-service` graph registry is the primary consumer).
    ///
    /// The hash is FNV-1a over `(n, directed, m)` and the canonical edge
    /// list (each undirected edge once with `u < v`, in sorted order).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.n as u64);
        mix(u64::from(self.directed));
        mix(self.m as u64);
        for u in 0..self.n {
            for (&v, &w) in &self.adj[u] {
                if self.directed || u < v {
                    mix(u as u64);
                    mix(v as u64);
                    mix(w as u64);
                }
            }
        }
        h
    }

    /// Returns a copy with `extra` additional isolated nodes appended —
    /// the padding used to reach clique sizes with convenient arithmetic
    /// structure. Isolated nodes change no cycle counts and no finite
    /// distances.
    #[must_use]
    pub fn padded(&self, extra: usize) -> Self {
        let mut g = if self.directed {
            Graph::directed(self.n + extra)
        } else {
            Graph::undirected(self.n + extra)
        };
        for (u, v, w) in self.edges() {
            g.add_weighted_edge(u, v, w);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_edges_are_symmetric() {
        let mut g = Graph::undirected(3);
        g.add_edge(0, 2);
        assert!(g.has_edge(2, 0));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edges(), vec![(0, 2, 1)]);
    }

    #[test]
    fn directed_edges_are_one_way() {
        let mut g = Graph::directed(3);
        g.add_edge(0, 2);
        assert!(!g.has_edge(2, 0));
        assert_eq!(g.in_neighbors(2).collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.neighbors(2).count(), 0);
    }

    #[test]
    fn mutual_degree_counts_bidirectional_pairs() {
        let mut g = Graph::directed(4);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(0, 2);
        assert_eq!(g.mutual_degree(0), 1);
        assert_eq!(g.mutual_degree(2), 0);
    }

    #[test]
    fn weight_matrix_layout() {
        let mut g = Graph::undirected(3);
        g.add_weighted_edge(0, 1, 4);
        let w = g.weight_matrix();
        assert_eq!(w[(0, 0)], Dist::zero());
        assert_eq!(w[(0, 1)], Dist::finite(4));
        assert_eq!(w[(1, 0)], Dist::finite(4));
        assert_eq!(w[(0, 2)], INFINITY);
    }

    #[test]
    fn out_rows_match_the_per_entry_lookups() {
        let mut weighted = Graph::undirected(6);
        weighted.add_weighted_edge(0, 5, 9);
        weighted.add_weighted_edge(2, 1, -3);
        weighted.add_edge(4, 2);
        let graphs = [
            crate::generators::gnp(12, 0.3, 4),
            crate::generators::gnp_directed(12, 0.3, 5),
            crate::generators::weighted_gnp(10, 0.4, 5, true, 6),
            weighted,
            Graph::undirected(5),
            Graph::directed(3),
            Graph::undirected(0),
        ];
        for g in &graphs {
            let n = g.n();
            for u in 0..n {
                let by_lookup: Vec<Option<i64>> = (0..n).map(|v| g.weight(u, v)).collect();
                assert_eq!(g.out_row(u, None, |_, w| Some(w)), by_lookup);
                let tagged: Vec<usize> = (0..n)
                    .map(|v| if g.has_edge(u, v) { v } else { usize::MAX })
                    .collect();
                assert_eq!(g.out_row(u, usize::MAX, |v, _| v), tagged);
            }
            let adjacency = Matrix::from_fn(n, n, |u, v| i64::from(g.has_edge(u, v)));
            assert_eq!(g.adjacency_matrix(), adjacency);
            assert_eq!(g.bool_adjacency(), adjacency.map(|&x| x == 1));
            let weights = Matrix::from_fn(n, n, |u, v| match g.weight(u, v) {
                _ if u == v => Dist::zero(),
                Some(w) => Dist::finite(w),
                None => INFINITY,
            });
            assert_eq!(g.weight_matrix(), weights);
        }
    }

    #[test]
    fn padding_preserves_structure() {
        let mut g = Graph::undirected(3);
        g.add_edge(0, 1);
        let p = g.padded(2);
        assert_eq!(p.n(), 5);
        assert_eq!(p.m(), 1);
        assert_eq!(p.degree(4), 0);
    }

    #[test]
    fn fingerprint_tracks_content_not_construction_order() {
        let mut a = Graph::undirected(4);
        a.add_edge(0, 1);
        a.add_weighted_edge(2, 3, 5);
        let mut b = Graph::undirected(4);
        b.add_weighted_edge(3, 2, 5); // same edge set, different call order
        b.add_edge(1, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Every content axis moves the fingerprint: node count, direction,
        // edge set, weights.
        assert_ne!(a.fingerprint(), a.padded(1).fingerprint());
        let mut directed = Graph::directed(4);
        directed.add_edge(0, 1);
        directed.add_weighted_edge(2, 3, 5);
        assert_ne!(a.fingerprint(), directed.fingerprint());
        let mut heavier = Graph::undirected(4);
        heavier.add_edge(0, 1);
        heavier.add_weighted_edge(2, 3, 6);
        assert_ne!(a.fingerprint(), heavier.fingerprint());
        let mut extra = a.clone();
        extra.add_edge(0, 2);
        assert_ne!(a.fingerprint(), extra.fingerprint());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::undirected(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate() {
        let mut g = Graph::undirected(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }
}
