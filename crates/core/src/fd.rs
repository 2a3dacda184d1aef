//! RECEIPT FD — Fine-grained Decomposition (Algorithm 4).
//!
//! Each coarse subset `U_i` is peeled *independently*: a worker induces the
//! subgraph `G_i = G[U_i ∪ V]`, initializes supports from the `⋈init`
//! snapshot, and runs sequential bottom-up peeling with a k-way min-heap.
//! Workers pull subset ids from a shared queue (dynamic allocation) that is
//! pre-sorted by descending induced-wedge count (workload-aware scheduling,
//! §3.2.1 — the LPT heuristic of Figure 3). The only synchronization is the
//! final join: FD contributes zero peeling rounds to ρ.

use crate::cd::CoarseResult;
use crate::config::Config;
use crate::heap::IndexedMinHeap;
use crate::TipDecomposition;
use bigraph::{InducedGraph, RankedGraph, Side, SideGraph, VertexId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Peels every coarse subset and assembles the final tip numbers.
pub fn fine_decompose(
    view: SideGraph<'_>,
    coarse: CoarseResult,
    config: &Config,
) -> TipDecomposition {
    let t0 = Instant::now();
    let n = view.num_primary();
    let CoarseResult {
        side,
        bounds: _bounds,
        subsets,
        init_support,
        mut metrics,
    } = coarse;

    // Workload-aware scheduling: order subsets by descending induced-wedge
    // estimate so the heaviest tasks start first.
    let weights = induced_wedge_estimates(view, &subsets);
    let mut order: Vec<usize> = (0..subsets.len()).collect();
    order.sort_unstable_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));

    let threads = config.effective_threads().max(1).min(subsets.len().max(1));
    let next = AtomicUsize::new(0);
    let wedges_fd = AtomicU64::new(0);
    let recounts_fd = AtomicU64::new(0);
    let results: Mutex<Vec<(VertexId, u64)>> = Mutex::new(Vec::with_capacity(n));
    let arity = config.heap_arity;

    // rayon::scope (not std::thread::scope) for two reasons: the workers
    // run as pool jobs — reused threads, no per-call spawning — and they
    // inherit the ambient pool budget, so nested parallel work inside a
    // subset splits by the configured thread count instead of falling
    // back to all cores. Scheduling is two-level: this scope's worker
    // tasks are external submissions (they enter the pool's shared
    // injector once, then the `next` counter hands out subset ids
    // dynamically, heaviest first), while any parallel work *inside* a
    // subset forks adaptively on the executing worker — jobs land on its
    // own deque and idle workers steal them, which is what rebalances the
    // skewed per-subset workloads the coarse ordering can't predict.
    rayon::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut local: Vec<(VertexId, u64)> = Vec::new();
                let mut local_wedges = 0u64;
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= order.len() {
                        break;
                    }
                    let subset = &subsets[order[slot]];
                    if subset.is_empty() {
                        continue;
                    }
                    let induced = InducedGraph::new(view, subset);
                    let sup: Vec<u64> = subset.iter().map(|&u| init_support[u as usize]).collect();
                    let (tips_local, wedges, recounts) = peel_subset_with_dgm(
                        &induced,
                        &sup,
                        config.huc,
                        config.dgm,
                        config.dgm_threshold,
                        arity,
                    );
                    local_wedges += wedges;
                    recounts_fd.fetch_add(recounts, Ordering::Relaxed);
                    for (local_id, &theta) in tips_local.iter().enumerate() {
                        local.push((induced.primary_global(local_id as VertexId), theta));
                    }
                }
                wedges_fd.fetch_add(local_wedges, Ordering::Relaxed);
                results.lock().unwrap().append(&mut local);
            });
        }
    });

    let mut tip = vec![0u64; n];
    let mut assigned = vec![false; n];
    for (u, theta) in results.into_inner().unwrap() {
        debug_assert!(!assigned[u as usize], "vertex {u} peeled twice");
        assigned[u as usize] = true;
        tip[u as usize] = theta;
    }
    debug_assert!(assigned.iter().all(|&a| a), "every vertex must be peeled");

    metrics.wedges_fd = wedges_fd.into_inner();
    metrics.recounts += recounts_fd.into_inner();
    metrics.time_fd = t0.elapsed();

    TipDecomposition { side, tip, metrics }
}

/// Peels one induced subset with sequential bottom-up peeling, optionally
/// applying FD-side HUC (§4.1): when propagating a peeled vertex's updates
/// would traverse more wedges than re-counting the whole live subgraph,
/// re-count instead. FD re-counts must add back the *external
/// contribution* `ext_u = ⋈init_u − ⋈_{G_i}(u)` — butterflies `u` shares
/// with higher-range subsets, which the induced subgraph cannot see but
/// which never change while `U_i` is peeled.
///
/// With `dgm`, the peel also runs in-subset Dynamic Graph Maintenance:
/// after `dgm_threshold · m_i` wedges since the previous compaction, the
/// induced subgraph is rebuilt without the peeled vertices' edges — the
/// same §4.2 optimization CD uses, which pays off on hub-heavy induced
/// subgraphs.
///
/// Returns `(tip numbers, wedges traversed, recount invocations)`.
pub fn peel_subset_with_dgm(
    induced: &InducedGraph,
    init_support: &[u64],
    huc: bool,
    dgm: bool,
    dgm_threshold: f64,
    heap_arity: usize,
) -> (Vec<u64>, u64, u64) {
    let n = induced.num_primary();
    debug_assert_eq!(init_support.len(), n);
    let mut heap = IndexedMinHeap::new(heap_arity, init_support);
    let mut tip = vec![0u64; n];
    let mut cnt = vec![0u32; n];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut wedges = 0u64;
    let mut recounts = 0u64;

    // DGM state: `current` replaces the pristine induced CSR after the
    // first compaction. The trigger base is the original edge count.
    let m_original = induced.num_edges();
    let mut current: Option<bigraph::BipartiteCsr> = None;
    let mut wedges_since_compact = 0u64;

    // HUC state, built lazily on the first trigger: ranked structure for
    // counting, pristine in-subgraph counts (for `ext`), and alive flags
    // mirroring heap membership.
    let mut c_rcnt = if huc {
        bigraph::stats::recount_cost(induced.view())
    } else {
        u64::MAX
    };
    let mut huc_state: Option<(RankedGraph, Vec<u64>, Vec<AtomicBool>)> = None;

    while let Some((u, theta)) = heap.pop_min() {
        tip[u as usize] = theta;
        if let Some((_, _, alive)) = &huc_state {
            alive[u as usize].store(false, Ordering::Relaxed);
        }
        let view = match &current {
            Some(c) => c.view(Side::U),
            None => induced.view(),
        };

        if huc && !heap.is_empty() {
            let peel_cost: u64 = view
                .neighbors_primary(u)
                .iter()
                .map(|&s| view.deg_secondary(s) as u64)
                .sum();
            if peel_cost > c_rcnt {
                // Re-count instead of peeling.
                recounts += 1;
                let (ranked, ext, alive) = huc_state.get_or_insert_with(|| {
                    let ranked = RankedGraph::from_csr(induced.csr());
                    let pristine = butterfly::count::vertex_priority_counts(&ranked);
                    let ext: Vec<u64> = init_support
                        .iter()
                        .zip(&pristine.u)
                        .map(|(&init, &own)| init - own)
                        .collect();
                    let alive: Vec<AtomicBool> = (0..n)
                        .map(|v| AtomicBool::new(heap.contains(v as VertexId)))
                        .collect();
                    (ranked, ext, alive)
                });
                // (get_or_insert_with ran before u was flagged dead above
                // only on first trigger — flag it now to be safe.)
                alive[u as usize].store(false, Ordering::Relaxed);
                let rc = butterfly::parallel::par_counts_with_filter(ranked, Side::U, alive);
                wedges += rc.wedges_traversed;
                for v in 0..n as VertexId {
                    if heap.contains(v) {
                        let fresh = (rc.u[v as usize] + ext[v as usize]).max(theta);
                        heap.decrease_key(v, fresh);
                    }
                }
                continue;
            }
        }

        let mut pop_wedges = 0u64;
        for &v in view.neighbors_primary(u) {
            for &u2 in view.neighbors_secondary(v) {
                if u2 == u {
                    continue;
                }
                pop_wedges += 1;
                let c = &mut cnt[u2 as usize];
                if *c == 0 {
                    touched.push(u2);
                }
                *c += 1;
            }
        }
        wedges += pop_wedges;
        wedges_since_compact += pop_wedges;
        for &u2 in &touched {
            let c = cnt[u2 as usize] as u64;
            cnt[u2 as usize] = 0;
            if c >= 2 {
                if let Some(cur) = heap.key(u2) {
                    let shared = c * (c - 1) / 2;
                    heap.decrease_key(u2, cur.saturating_sub(shared).max(theta));
                }
            }
        }
        touched.clear();

        if dgm
            && !heap.is_empty()
            && (wedges_since_compact as f64) >= dgm_threshold * m_original as f64
        {
            let alive_p: Vec<bool> = (0..n as VertexId).map(|p| heap.contains(p)).collect();
            let alive_s = vec![true; induced.num_secondary()];
            let source = current.as_ref().unwrap_or_else(|| induced.csr());
            current = Some(bigraph::compact::compact(source, &alive_p, &alive_s));
            wedges_since_compact = 0;
            if huc {
                c_rcnt = bigraph::stats::recount_cost(
                    current.as_ref().expect("just compacted").view(Side::U),
                );
            }
        }
    }
    (tip, wedges, recounts)
}

/// Estimated wedges inside each induced subgraph: `Σ_s d_s(d_s − 1)` where
/// `d_s` is a secondary vertex's degree restricted to the subset. One O(m)
/// sweep total, reusing a dense per-secondary counter.
fn induced_wedge_estimates(view: SideGraph<'_>, subsets: &[Vec<VertexId>]) -> Vec<u64> {
    let mut deg = vec![0u64; view.num_secondary()];
    let mut touched: Vec<VertexId> = Vec::new();
    subsets
        .iter()
        .map(|subset| {
            for &u in subset {
                for &s in view.neighbors_primary(u) {
                    if deg[s as usize] == 0 {
                        touched.push(s);
                    }
                    deg[s as usize] += 1;
                }
            }
            let mut total = 0u64;
            for &s in &touched {
                let d = deg[s as usize];
                deg[s as usize] = 0;
                total += d * (d - 1);
            }
            touched.clear();
            total
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cd::coarse_decompose;
    use bigraph::builder::from_edges;
    use bigraph::{gen, Side};

    #[test]
    fn fd_respects_coarse_bounds() {
        let g = gen::zipf(80, 40, 500, 0.5, 0.9, 5);
        let cfg = Config::default().with_partitions(8);
        let coarse = coarse_decompose(&g, Side::U, &cfg);
        let bounds = coarse.bounds.clone();
        let subsets = coarse.subsets.clone();
        let d = fine_decompose(g.view(Side::U), coarse, &cfg);
        for (i, subset) in subsets.iter().enumerate() {
            for &u in subset {
                let t = d.tip[u as usize];
                assert!(
                    bounds[i] <= t && t < bounds[i + 1],
                    "θ_{u}={t} outside [{}, {})",
                    bounds[i],
                    bounds[i + 1]
                );
            }
        }
    }

    #[test]
    fn induced_wedge_estimates_match_definition() {
        let g = from_edges(4, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]).unwrap();
        let view = g.view(Side::U);
        let est = induced_wedge_estimates(view, &[vec![0, 1, 2], vec![3]]);
        // Subset {0,1,2}: v0 degree 2 (u0,u1) -> 2 wedges; v1 degree 2 -> 2.
        assert_eq!(est, vec![4, 0]);
    }

    #[test]
    fn single_thread_matches_many_threads() {
        let g = gen::zipf(100, 50, 700, 0.5, 0.8, 9);
        let mk = |threads| {
            let cfg = Config::default().with_partitions(10).with_threads(threads);
            let coarse = coarse_decompose(&g, Side::U, &cfg);
            fine_decompose(g.view(Side::U), coarse, &cfg).tip
        };
        assert_eq!(mk(1), mk(4));
    }

    #[test]
    fn peel_subset_huc_matches_plain_peel() {
        // FD HUC must not change tip numbers, only the wedge workload.
        for seed in 0..4 {
            let g = gen::zipf(80, 25, 500, 0.3, 1.2, seed);
            let cfg = Config::default().with_partitions(4);
            let coarse = coarse_decompose(&g, Side::U, &cfg);
            for subset in &coarse.subsets {
                if subset.is_empty() {
                    continue;
                }
                let induced = InducedGraph::new(g.view(Side::U), subset);
                let sup: Vec<u64> = subset
                    .iter()
                    .map(|&u| coarse.init_support[u as usize])
                    .collect();
                let (with_huc, _, _) = peel_subset_with_dgm(&induced, &sup, true, false, 1.0, 4);
                let (without, plain_wedges, zero) =
                    peel_subset_with_dgm(&induced, &sup, false, false, 1.0, 4);
                assert_eq!(with_huc, without, "seed {seed}");
                assert_eq!(zero, 0);
                let (_, huc_wedges, _) = peel_subset_with_dgm(&induced, &sup, true, false, 1.0, 4);
                assert!(
                    huc_wedges <= plain_wedges.max(1),
                    "HUC may only reduce FD wedges: {huc_wedges} vs {plain_wedges}"
                );
            }
        }
    }

    #[test]
    fn fd_wedges_do_not_exceed_cd_peel_wedges() {
        // Induced subgraphs only contain a subset of the original wedges;
        // FD traversal must be at most the no-DGM CD traversal (§3).
        let g = gen::zipf(90, 45, 600, 0.5, 0.9, 13);
        let cfg = Config::default().with_partitions(6).baseline_variant();
        let coarse = coarse_decompose(&g, Side::U, &cfg);
        let cd_wedges = coarse.metrics.wedges_cd;
        let d = fine_decompose(g.view(Side::U), coarse, &cfg);
        assert!(
            d.metrics.wedges_fd <= cd_wedges,
            "FD {} > CD {}",
            d.metrics.wedges_fd,
            cd_wedges
        );
    }
}
