//! The partition-based algorithms of Dolev, Lenzen and Peled
//! ("Tri, tri again", DISC 2012) — the combinatorial prior work in
//! Table 1's triangle and cycle rows.

use cc_algebra::Semiring;
use cc_clique::{Clique, WordWriter};
use cc_graph::Graph;

/// Partition of `V` into `parts` near-equal consecutive classes.
fn part_of(n: usize, parts: usize, v: usize) -> usize {
    let size = n.div_ceil(parts);
    (v / size).min(parts - 1)
}

fn part_range(n: usize, parts: usize, p: usize) -> std::ops::Range<usize> {
    let size = n.div_ceil(parts);
    (p * size).min(n)..((p + 1) * size).min(n)
}

/// Dolev et al. triangle counting: `V` is split into `p = ⌊n^{1/3}⌋`
/// classes; the node with index `(i, j, k)` learns the bipartite edge sets
/// `E(Vᵢ, Vⱼ)`, `E(Vⱼ, Vₖ)`, `E(Vᵢ, Vₖ)` and counts the triangles
/// `x < y < z` with `x ∈ Vᵢ, y ∈ Vⱼ, z ∈ Vₖ`. Deterministic, `O(n^{1/3})`
/// rounds — the bound our Corollary 2 implementation must beat
/// asymptotically.
///
/// # Panics
///
/// Panics if `clique.n() != g.n()`.
pub fn triangle_count(clique: &mut Clique, g: &Graph) -> u64 {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let mut p = 1usize;
    while (p + 1) * (p + 1) * (p + 1) <= n {
        p += 1;
    }
    let node_of = |i: usize, j: usize, k: usize| (i * p + j) * p + k;

    clique.phase("dolev.triangles", |clique| {
        // Row owners ship adjacency slices to every tuple node that needs
        // them: (b, *, *) nodes need A[v, V_j] and A[v, V_k]; (*, b, *)
        // nodes need A[v, V_k].
        let inbox = clique.route(|v| {
            let b = part_of(n, p, v);
            let row = g.out_row(v, false, |_, _| true);
            let mut out = Vec::new();
            let slice = |range: std::ops::Range<usize>| {
                let mut w = WordWriter::new();
                for e in &row[range] {
                    cc_algebra::BoolSemiring.write_elem(e, &mut w);
                }
                w.into_words()
            };
            for j in 0..p {
                for k in 0..p {
                    let mut payload = slice(part_range(n, p, j));
                    payload.extend(slice(part_range(n, p, k)));
                    out.push((node_of(b, j, k), payload));
                }
            }
            for i in 0..p {
                for k in 0..p {
                    out.push((node_of(i, b, k), slice(part_range(n, p, k))));
                }
            }
            out
        });

        // Each tuple node counts its triangles locally.
        clique.sum_all(|u| {
            if u >= p * p * p {
                return 0;
            }
            let (i, j, k) = (u / (p * p), (u / p) % p, u % p);
            let (ri, rj, rk) = (
                part_range(n, p, i),
                part_range(n, p, j),
                part_range(n, p, k),
            );
            // Decode: from x ∈ Vᵢ we received A[x, Vⱼ] ++ A[x, Vₖ] (and, if
            // x is also in Vⱼ — i.e. i == j — a further A[x, Vₖ] slice);
            // from y ∈ Vⱼ we received A[y, Vₖ].
            let read = |src: usize, offset: usize, len: usize| -> Vec<bool> {
                let words = inbox.received(u, src);
                words[offset..offset + len]
                    .iter()
                    .map(|&w| w != 0)
                    .collect()
            };
            let mut count = 0i64;
            for x in ri.clone() {
                let exj = read(x, 0, rj.len());
                let exk = read(x, rj.len(), rk.len());
                for (yi, y) in rj.clone().enumerate() {
                    if !(x < y && exj[yi]) {
                        continue;
                    }
                    // A[y, V_k] sits after any (i-tuple) slices y sent us.
                    let y_offset = if part_of(n, p, y) == i {
                        rj.len() + rk.len()
                    } else {
                        0
                    };
                    let eyk = read(y, y_offset, rk.len());
                    for (zi, z) in rk.clone().enumerate() {
                        if y < z && exk[zi] && eyk[zi] {
                            count += 1;
                        }
                    }
                }
            }
            count
        }) as u64
    })
}

/// Dolev et al. `k`-cycle detection: `V` is split into `t = ⌊n^{1/k}⌋`
/// classes; the node with tuple `(c₁, …, c_k)` learns all edges inside
/// `V_{c₁} ∪ … ∪ V_{c_k}` and searches locally for a cycle
/// `x₁ ∈ V_{c₁} → ⋯ → x_k ∈ V_{c_k} → x₁` with distinct nodes. Costs
/// `O(k²·n^{1-2/k})` rounds — the prior-work bound in Table 1's cycle rows.
///
/// # Panics
///
/// Panics if `k < 3` (undirected) / `k < 2` (directed) or sizes mismatch.
pub fn kcycle_detect(clique: &mut Clique, g: &Graph, k: usize) -> bool {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let min_k = if g.is_directed() { 2 } else { 3 };
    assert!(k >= min_k, "cycles need length at least {min_k}");
    let mut t = 1usize;
    while (t + 1).pow(k as u32) <= n {
        t += 1;
    }
    let tuples = t.pow(k as u32);
    let tuple_of = |u: usize| -> Vec<usize> {
        let mut digits = Vec::with_capacity(k);
        let mut x = u;
        for _ in 0..k {
            digits.push(x % t);
            x /= t;
        }
        digits
    };

    clique.phase("dolev.kcycle", |clique| {
        // Row owners ship their adjacency slice A[v, V_c] to every tuple
        // node whose tuple contains part(v), for every part c in that tuple.
        let inbox = clique.route(|v| {
            let b = part_of(n, t, v);
            let row = g.out_row(v, false, |_, _| true);
            let mut out = Vec::new();
            for u in 0..tuples {
                let tup = tuple_of(u);
                if !tup.contains(&b) {
                    continue;
                }
                // Deterministic order: slices for tuple positions ascending.
                let mut w = WordWriter::new();
                for &c in &tup {
                    for e in &row[part_range(n, t, c)] {
                        cc_algebra::BoolSemiring.write_elem(e, &mut w);
                    }
                }
                out.push((u, w.into_words()));
            }
            out
        });

        clique.or_all(|u| {
            if u >= tuples {
                return false;
            }
            let tup = tuple_of(u);
            // Rebuild the induced edge lookup on the union of parts.
            let members: Vec<usize> = tup.iter().flat_map(|&c| part_range(n, t, c)).collect();
            let slice_len: usize = tup.iter().map(|&c| part_range(n, t, c).len()).sum();
            let has = |x: usize, yi: usize| -> bool {
                // x's slice covers `members` in order; find x's payload.
                let words = inbox.received(u, x);
                debug_assert_eq!(words.len(), slice_len);
                words[yi] != 0
            };
            if k == 4 {
                // Specialised cubic check: for each (x₁, x₃), count the
                // common mid-points available in V_{c₂} and V_{c₄}.
                let pos: Vec<std::ops::Range<usize>> = {
                    let mut start = 0;
                    tup.iter()
                        .map(|&c| {
                            let len = part_range(n, t, c).len();
                            let r = start..start + len;
                            start += len;
                            r
                        })
                        .collect()
                };
                for i1 in pos[0].clone() {
                    let x1 = members[i1];
                    for i3 in pos[2].clone() {
                        let x3 = members[i3];
                        if x1 == x3 {
                            continue;
                        }
                        let mids = |slot: usize, fwd: bool| -> Vec<usize> {
                            pos[slot]
                                .clone()
                                .filter(|&im| {
                                    let xm = members[im];
                                    xm != x1
                                        && xm != x3
                                        && if fwd {
                                            has(x1, im) && has(xm, i3)
                                        } else {
                                            has(x3, im) && has(xm, i1)
                                        }
                                })
                                .map(|im| members[im])
                                .collect()
                        };
                        let a = mids(1, true); // candidates x₂: x₁ → x₂ → x₃
                        let found = if tup[1] == tup[3] {
                            // x₂ and x₄ share a class: need a distinct pair.
                            let b = mids(3, false);
                            a.iter().any(|&x2| b.iter().any(|&x4| x2 != x4))
                        } else if a.is_empty() {
                            false
                        } else {
                            !mids(3, false).is_empty()
                        };
                        if found {
                            return true;
                        }
                    }
                }
                return false;
            }
            // DFS along the tuple positions for a colour-patterned cycle.
            fn dfs(
                members: &[usize],
                ranges: &[std::ops::Range<usize>],
                has: &dyn Fn(usize, usize) -> bool,
                path: &mut Vec<usize>,
                k: usize,
            ) -> bool {
                let depth = path.len();
                if depth == k {
                    let first = path[0];
                    let last = path[k - 1];
                    let first_idx = members.iter().position(|&m| m == first).expect("member");
                    return has(last, first_idx);
                }
                let prev = path[depth - 1];
                for (mi, &cand) in members.iter().enumerate() {
                    if !ranges[depth].contains(&cand) || path.contains(&cand) {
                        continue;
                    }
                    if has(prev, mi) {
                        path.push(cand);
                        if dfs(members, ranges, has, path, k) {
                            return true;
                        }
                        path.pop();
                    }
                }
                false
            }
            let ranges: Vec<std::ops::Range<usize>> =
                tup.iter().map(|&c| part_range(n, t, c)).collect();
            for start in ranges[0].clone() {
                let mut path = vec![start];
                if dfs(&members, &ranges, &|x, yi| has(x, yi), &mut path, k) {
                    return true;
                }
            }
            false
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, oracle};

    fn check_triangles(g: &Graph) {
        let mut clique = Clique::new(g.n());
        assert_eq!(
            triangle_count(&mut clique, g),
            oracle::count_triangles(g),
            "n={} m={}",
            g.n(),
            g.m()
        );
    }

    #[test]
    fn triangle_counts_match_oracle() {
        check_triangles(&generators::complete(5));
        check_triangles(&generators::petersen());
        check_triangles(&generators::cycle(9));
        for seed in 0..4 {
            check_triangles(&generators::gnp(20, 0.3, seed));
            check_triangles(&generators::gnp(30, 0.2, seed + 9));
        }
    }

    fn check_kcycle(g: &Graph, k: usize) {
        let mut clique = Clique::new(g.n());
        assert_eq!(
            kcycle_detect(&mut clique, g, k),
            oracle::has_k_cycle(g, k),
            "k={k} n={} m={}",
            g.n(),
            g.m()
        );
    }

    #[test]
    fn kcycle_detection_matches_oracle() {
        check_kcycle(&generators::cycle(4), 4);
        check_kcycle(&generators::cycle(5), 4);
        check_kcycle(&generators::petersen(), 5);
        check_kcycle(&generators::petersen(), 4);
        check_kcycle(&generators::grid(3, 3), 4);
        for seed in 0..3 {
            let g = generators::gnp(16, 0.12, seed);
            check_kcycle(&g, 4);
            check_kcycle(&g, 5);
        }
    }

    #[test]
    fn directed_kcycles() {
        check_kcycle(&generators::directed_cycle(4), 4);
        check_kcycle(&generators::directed_cycle(5), 4);
        for seed in 0..3 {
            check_kcycle(&generators::gnp_directed(12, 0.15, seed), 3);
        }
    }

    #[test]
    fn rounds_grow_roughly_like_cube_root_for_triangles() {
        let rounds = |n: usize| {
            let g = generators::gnp(n, 0.3, 1);
            let mut clique = Clique::new(n);
            triangle_count(&mut clique, &g);
            clique.rounds() as f64
        };
        let (r27, r216) = (rounds(27), rounds(216));
        assert!(r216 / r27 < 4.0, "expected ~2x growth, got {r27} -> {r216}");
    }
}
