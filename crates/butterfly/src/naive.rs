//! Naive wedge-hashing butterfly counting — the correctness oracle.
//!
//! For each primary vertex `u`, count common neighbours with every 2-hop
//! neighbour `u' > u`; each pair sharing `c ≥ 2` secondary vertices closes
//! `C(c, 2)` butterflies. `O(Σ_{u} Σ_{v∈N_u} d_v)` time — fine for the
//! small graphs used in tests, far too slow for the evaluation datasets
//! (which is the paper's point).

use bigraph::{Side, SideGraph, VertexId};

/// Per-vertex butterfly counts for the primary side of `view`.
pub fn naive_primary_counts(view: SideGraph<'_>) -> Vec<u64> {
    let np = view.num_primary();
    let mut counts = vec![0u64; np];
    let mut common = vec![0u32; np];
    let mut touched: Vec<VertexId> = Vec::new();

    for u in 0..np as VertexId {
        for &v in view.neighbors_primary(u) {
            for &u2 in view.neighbors_secondary(v) {
                if u2 > u {
                    if common[u2 as usize] == 0 {
                        touched.push(u2);
                    }
                    common[u2 as usize] += 1;
                }
            }
        }
        for &u2 in &touched {
            let c = common[u2 as usize] as u64;
            common[u2 as usize] = 0;
            let b = c * (c - 1) / 2;
            counts[u as usize] += b;
            counts[u2 as usize] += b;
        }
        touched.clear();
    }
    counts
}

/// Both sides via two passes.
pub fn naive_counts(g: &bigraph::BipartiteCsr) -> crate::VertexCounts {
    crate::VertexCounts {
        u: naive_primary_counts(g.view(Side::U)),
        v: naive_primary_counts(g.view(Side::V)),
        wedges_traversed: 0, // the oracle does not track workload
    }
}

/// Total butterflies, computed pairwise from the U side.
pub fn naive_total(g: &bigraph::BipartiteCsr) -> u64 {
    naive_primary_counts(g.view(Side::U)).iter().sum::<u64>() / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;

    #[test]
    fn single_butterfly() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let c = naive_counts(&g);
        assert_eq!(c.u, vec![1, 1]);
        assert_eq!(c.v, vec![1, 1]);
        assert_eq!(c.total(), 1);
        assert_eq!(naive_total(&g), 1);
    }

    #[test]
    fn complete_k33() {
        // K(3,3): C(3,2)^2 = 9 butterflies; each vertex in C(2,1)*... each
        // u participates in C(2,1) choices of partner * C(3,2) v-pairs = 6.
        let mut edges = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                edges.push((u, v));
            }
        }
        let g = from_edges(3, 3, &edges).unwrap();
        let c = naive_counts(&g);
        assert_eq!(c.total(), 9);
        assert!(c.u.iter().all(|&x| x == 6));
        assert!(c.v.iter().all(|&x| x == 6));
    }

    #[test]
    fn star_has_no_butterflies() {
        let g = from_edges(4, 1, &[(0, 0), (1, 0), (2, 0), (3, 0)]).unwrap();
        assert_eq!(naive_total(&g), 0);
        assert!(naive_counts(&g).u.iter().all(|&x| x == 0));
    }

    #[test]
    fn path_has_no_butterflies() {
        // u0-v0-u1-v1-u2: wedges but no closed quadrangle.
        let g = from_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        assert_eq!(naive_total(&g), 0);
    }

    #[test]
    fn figure_1_example() {
        // The paper's Fig.1 graph: u1..u4 × v1..v4 (0-indexed here).
        // Edges: u1-{v1,v2}, u2-{v1,v2,v3}, u3-{v1,v2,v3,v4}, u4-{v3,v4}.
        let g = from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
            ],
        )
        .unwrap();
        let c = naive_counts(&g);
        // Paper: u4 participates in 1 butterfly, u1 in 2, u3 in 5.
        assert_eq!(c.u[3], 1);
        assert_eq!(c.u[0], 2);
        assert_eq!(c.u[2], 5);
    }

    #[test]
    fn empty_graph() {
        let g = bigraph::BipartiteCsr::empty(3, 3);
        assert_eq!(naive_total(&g), 0);
    }
}
