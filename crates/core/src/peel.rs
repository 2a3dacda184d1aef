//! The peel/update machinery shared by RECEIPT CD and ParB:
//! wedge-aggregation scratch, the `update()` routine of Algorithm 2, and
//! [`PeelGraph`] — the live-graph wrapper that implements Dynamic Graph
//! Maintenance (§4.2) — plus [`seeded_peel`], the sequential live-graph
//! peel behind the dynamic engine's tip refresh.

use crate::heap::IndexedMinHeap;
use crate::support::SupportVec;
use bigraph::{BipartiteCsr, RankedGraph, Side, SideGraph, VertexId};
use butterfly::intersect::VertexBitset;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Neighbour access used by wedge traversal. Implemented by [`SideGraph`]
/// (static graph) and [`PeelGraph`] (DGM-compacted live graph).
pub trait WedgeAccess: Sync {
    fn nbrs_primary(&self, p: VertexId) -> &[VertexId];
    fn nbrs_secondary(&self, s: VertexId) -> &[VertexId];
}

impl WedgeAccess for SideGraph<'_> {
    #[inline]
    fn nbrs_primary(&self, p: VertexId) -> &[VertexId] {
        self.neighbors_primary(p)
    }
    #[inline]
    fn nbrs_secondary(&self, s: VertexId) -> &[VertexId] {
        self.neighbors_secondary(s)
    }
}

/// Dense per-task scratch for one `update()` call: common-neighbour counts
/// plus the list of touched 2-hop neighbours.
pub struct PeelScratch {
    pub cnt: Vec<u32>,
    pub touched: Vec<VertexId>,
}

impl PeelScratch {
    pub fn new(num_primary: usize) -> Self {
        PeelScratch {
            cnt: vec![0; num_primary],
            touched: Vec::new(),
        }
    }
}

/// Algorithm 2's `update(u, floor, ⋈, G)` for the parallel steps: traverses
/// all wedges anchored at the peeled vertex `u`, computes the shared
/// butterfly count `⋈(u, u') = C(common, 2)` per 2-hop neighbour, and
/// applies floor-clamped atomic decrements to every *alive* neighbour.
/// Calls `on_updated(u')` for each alive neighbour whose support actually
/// changed. Returns the number of wedges traversed.
pub fn peel_vertex<G: WedgeAccess>(
    g: &G,
    u: VertexId,
    floor: u64,
    support: &SupportVec,
    alive: &[AtomicBool],
    scratch: &mut PeelScratch,
    mut on_updated: impl FnMut(VertexId),
) -> u64 {
    let mut wedges = 0u64;
    for &s in g.nbrs_primary(u) {
        for &u2 in g.nbrs_secondary(s) {
            if u2 == u {
                continue;
            }
            wedges += 1;
            let c = &mut scratch.cnt[u2 as usize];
            if *c == 0 {
                scratch.touched.push(u2);
            }
            *c += 1;
        }
    }
    for &u2 in &scratch.touched {
        let c = scratch.cnt[u2 as usize] as u64;
        scratch.cnt[u2 as usize] = 0;
        if c >= 2 && alive[u2 as usize].load(Ordering::Relaxed) {
            let delta = c * (c - 1) / 2;
            let prev = support.decrement(u2, delta, floor);
            if prev > floor {
                on_updated(u2);
            }
        }
    }
    scratch.touched.clear();
    wedges
}

/// The live graph during coarse-grained peeling. Owns a rank-sorted
/// [`RankedGraph`] that stays rank-sorted through DGM compactions
/// (order-preserving filtering), so HUC re-counts run directly on the live
/// structure with the *original* ranks — no re-ranking or re-sorting per
/// re-count. Vertex-priority counting is exact under any fixed total
/// order; the initial degree order merely bounds its cost, and it remains
/// a good proxy as the graph shrinks.
pub struct PeelGraph {
    side: Side,
    current: RankedGraph,
    alive: Vec<AtomicBool>,
    live_count: usize,
    /// Wedges traversed since the last compaction (drives the `≥ m` DGM
    /// trigger).
    wedges_since_compact: u64,
    /// Edge count of the current structure.
    m_current: usize,
    /// Edge count of the original graph (the DGM trigger base: compaction
    /// after ≥ m original-graph wedge traversals keeps DGM free in the
    /// asymptotic complexity, §4.2).
    m_original: usize,
    /// Cached `C_rcnt` of the current structure (recomputed on compaction).
    recount_cost_cache: u64,
    compactions: u64,
}

impl PeelGraph {
    /// Takes ownership of the ranked graph built for initial counting.
    pub fn new(side: Side, ranked: RankedGraph) -> Self {
        let n = match side {
            Side::U => ranked.num_u(),
            Side::V => ranked.num_v(),
        };
        let mut pg = PeelGraph {
            side,
            current: ranked,
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            live_count: n,
            wedges_since_compact: 0,
            m_current: 0,
            m_original: 0,
            recount_cost_cache: 0,
            compactions: 0,
        };
        pg.m_current = pg.current.num_edges();
        pg.m_original = pg.m_current;
        pg.recount_cost_cache = pg.compute_recount_cost();
        pg
    }

    /// Convenience for tests: rank the graph and wrap it.
    pub fn from_csr(g: &BipartiteCsr, side: Side) -> Self {
        PeelGraph::new(side, RankedGraph::from_csr(g))
    }

    pub fn side(&self) -> Side {
        self.side
    }

    pub fn num_primary(&self) -> usize {
        self.alive.len()
    }

    pub fn num_secondary(&self) -> usize {
        match self.side {
            Side::U => self.current.num_v(),
            Side::V => self.current.num_u(),
        }
    }

    #[inline]
    pub fn is_alive(&self, p: VertexId) -> bool {
        self.alive[p as usize].load(Ordering::Relaxed)
    }

    pub fn alive_flags(&self) -> &[AtomicBool] {
        &self.alive
    }

    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Marks a batch peeled. Call between iterations (single-threaded
    /// bookkeeping; the flags themselves are read concurrently).
    pub fn kill_batch(&mut self, batch: &[VertexId]) {
        for &u in batch {
            debug_assert!(self.is_alive(u), "double peel of {u}");
            self.alive[u as usize].store(false, Ordering::Relaxed);
        }
        self.live_count -= batch.len();
    }

    /// Live primary ids (ascending).
    pub fn live_vertices(&self) -> Vec<VertexId> {
        (0..self.num_primary() as VertexId)
            .filter(|&p| self.is_alive(p))
            .collect()
    }

    #[inline]
    fn deg_secondary(&self, s: VertexId) -> usize {
        match self.side {
            Side::U => self.current.deg_v(s),
            Side::V => self.current.deg_u(s),
        }
    }

    /// Peel-cost `Σ_{v∈N_u} d_v` of one vertex in the current structure.
    pub fn peel_cost(&self, u: VertexId) -> u64 {
        self.nbrs_primary(u)
            .iter()
            .map(|&s| self.deg_secondary(s) as u64)
            .sum()
    }

    fn compute_recount_cost(&self) -> u64 {
        use rayon::prelude::*;
        (0..self.num_primary() as VertexId)
            .into_par_iter()
            .map(|p| {
                let dp = self.nbrs_primary(p).len() as u64;
                self.nbrs_primary(p)
                    .iter()
                    .map(|&s| dp.min(self.deg_secondary(s) as u64))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Cached `C_rcnt` of the current structure. Only refreshed on
    /// compaction, so between compactions it is an upper bound (the live
    /// graph can only shrink) — a conservative input to the HUC test.
    pub fn recount_cost(&self) -> u64 {
        self.recount_cost_cache
    }

    pub fn note_wedges(&mut self, w: u64) {
        self.wedges_since_compact += w;
    }

    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// DGM trigger: compacts if at least `threshold · m_current` wedges
    /// were traversed since the previous compaction. Returns whether a
    /// compaction happened.
    pub fn maybe_compact(&mut self, threshold: f64) -> bool {
        if (self.wedges_since_compact as f64) < threshold * self.m_original as f64 {
            return false;
        }
        self.compact_now();
        true
    }

    /// Unconditional compaction, preserving ranks and rank order.
    pub fn compact_now(&mut self) {
        let alive_primary: Vec<bool> = self
            .alive
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        let all_secondary = vec![true; self.num_secondary()];
        self.current = match self.side {
            Side::U => self.current.compact(&alive_primary, &all_secondary),
            Side::V => self.current.compact(&all_secondary, &alive_primary),
        };
        self.m_current = self.current.num_edges();
        self.recount_cost_cache = self.compute_recount_cost();
        self.wedges_since_compact = 0;
        self.compactions += 1;
    }

    /// HUC re-count: per-vertex butterfly counts of the *live* subgraph,
    /// computed in place with alive-filtering — no compaction and no
    /// re-ranking (the structure keeps its original rank order, which
    /// stays a valid priority for exact counting). Returns counts for both
    /// sides; callers pick `counts.side(self.side())`.
    pub fn recount_live(&mut self) -> butterfly::VertexCounts {
        butterfly::parallel::par_counts_with_filter(&self.current, self.side, &self.alive)
    }

    /// Edge count of the current (possibly compacted) structure.
    pub fn current_edges(&self) -> usize {
        self.m_current
    }
}

impl WedgeAccess for PeelGraph {
    #[inline]
    fn nbrs_primary(&self, p: VertexId) -> &[VertexId] {
        match self.side {
            Side::U => self.current.neighbors_u(p),
            Side::V => self.current.neighbors_v(p),
        }
    }

    #[inline]
    fn nbrs_secondary(&self, s: VertexId) -> &[VertexId] {
        match self.side {
            Side::U => self.current.neighbors_v(s),
            Side::V => self.current.neighbors_u(s),
        }
    }
}

/// Sequential bottom-up peel seeded with known butterfly counts. It
/// computes the tips of [`crate::bup::peel_all`] (same heap, same pop
/// order, same clamped decrements) while visiting far fewer wedges. Two
/// changes to BUP's inner loop:
///
/// * **In-place DGM** (§4.2, applied eagerly). The kernel keeps a private
///   copy of the secondary adjacency. Scanning a list compacts it: entries
///   of peeled vertices are dropped as they are met, so a dead entry is
///   visited at most once and no `O(m)` rebuild ever runs.
/// * **Hub-bitset skip.** Every secondary list of at least `2·⌈n/64⌉`
///   entries (the `n/32` rule rounded to whole words, so a bitset is never
///   larger than the list it shadows) also gets a bitset of its live
///   members. When `u` is peeled, its heaviest such list is not scanned;
///   its contribution is added by one membership test per 2-hop
///   neighbour the other lists touched. This is exact: a neighbour that
///   shares `c ≥ 2` secondaries with `u` shares one outside the skipped
///   list, so it is touched, and one that shares only the skipped list
///   has `c = 1` and loses `C(1, 2) = 0` butterflies. When the other
///   lists touched at least as many vertices as the skipped list would
///   visit, the list is scanned after all.
///
/// Returns `(tip numbers, work)`. Work counts one unit per list entry
/// visited (live wedges plus the dead entries dropped on the way) and one
/// per bitset membership test. For every peeled vertex that is at most
/// the wedges `peel_all` traverses for it, so the total never exceeds
/// `peel_all`'s wedge count.
pub fn seeded_peel(
    view: SideGraph<'_>,
    init_support: &[u64],
    heap_arity: usize,
) -> (Vec<u64>, u64) {
    let n = view.num_primary();
    debug_assert_eq!(n, init_support.len());
    let mut lists = LiveLists::new(view);
    let hub_min = 2 * n.div_ceil(64).max(1);
    let mut hubs: Vec<Option<VertexBitset>> = (0..view.num_secondary() as VertexId)
        .map(|s| {
            let members = view.neighbors_secondary(s);
            (members.len() >= hub_min).then(|| VertexBitset::from_iter(n, members.iter().copied()))
        })
        .collect();

    let mut heap = IndexedMinHeap::new(heap_arity, init_support);
    let mut tip = vec![0u64; n];
    let mut cnt = vec![0u32; n];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut work = 0u64;
    while let Some((u, theta)) = heap.pop_min() {
        tip[u as usize] = theta;
        let nbrs = view.neighbors_primary(u);
        let mut skip: Option<usize> = None;
        for &s in nbrs {
            let s = s as usize;
            if let Some(bits) = &mut hubs[s] {
                // Each bitset mirrors its live list, so a membership hit
                // always names an unpeeled vertex.
                bits.remove(u);
                if skip.is_none_or(|k| lists.len[s] > lists.len[k]) {
                    skip = Some(s);
                }
            }
        }
        for &s in nbrs {
            if Some(s as usize) != skip {
                work += lists.scan(s as usize, &heap, &mut cnt, &mut touched);
            }
        }
        if let Some(s) = skip {
            // `u` is still stored in the list, so a scan would visit
            // `len - 1` other entries.
            match &hubs[s] {
                Some(bits) if touched.len() < lists.len[s] as usize - 1 => {
                    work += touched.len() as u64;
                    for &u2 in &touched {
                        if bits.contains(u2) {
                            cnt[u2 as usize] += 1;
                        }
                    }
                }
                _ => work += lists.scan(s, &heap, &mut cnt, &mut touched),
            }
        }
        // `touched` is in another order than in `peel_all`, but the heap
        // orders by (key, id), so the pop sequence and tips are the same.
        for &u2 in &touched {
            let c = cnt[u2 as usize] as u64;
            cnt[u2 as usize] = 0;
            if c >= 2 {
                if let Some(cur) = heap.key(u2) {
                    heap.decrease_key(u2, cur.saturating_sub(c * (c - 1) / 2).max(theta));
                }
            }
        }
        touched.clear();
    }
    (tip, work)
}

/// The secondary adjacency of [`seeded_peel`]'s live graph: list `s` is
/// `adj[start[s]..][..len[s]]`, and `len[s]` shrinks as scans drop the
/// entries of peeled vertices.
struct LiveLists {
    start: Vec<usize>,
    len: Vec<u32>,
    adj: Vec<VertexId>,
}

impl LiveLists {
    fn new(view: SideGraph<'_>) -> Self {
        let ns = view.num_secondary();
        let mut lists = LiveLists {
            start: Vec::with_capacity(ns),
            len: Vec::with_capacity(ns),
            adj: Vec::with_capacity(view.num_edges()),
        };
        for s in 0..ns as VertexId {
            let members = view.neighbors_secondary(s);
            lists.start.push(lists.adj.len());
            lists.len.push(members.len() as u32);
            lists.adj.extend_from_slice(members);
        }
        lists
    }

    /// Counts every live entry of list `s` into `cnt`/`touched` and drops
    /// the entries of peeled vertices in place. The vertex being peeled
    /// is already out of the heap, so its own entry is dropped too; it is
    /// the one visit not counted in the returned work.
    fn scan(
        &mut self,
        s: usize,
        heap: &IndexedMinHeap,
        cnt: &mut [u32],
        touched: &mut Vec<VertexId>,
    ) -> u64 {
        let visited = self.len[s] as usize;
        let list = &mut self.adj[self.start[s]..][..visited];
        let mut kept = 0;
        for i in 0..visited {
            let x = list[i];
            if !heap.contains(x) {
                continue;
            }
            list[kept] = x;
            kept += 1;
            let c = &mut cnt[x as usize];
            if *c == 0 {
                touched.push(x);
            }
            *c += 1;
        }
        self.len[s] = kept as u32;
        visited as u64 - 1
    }
}

/// Shared atomic wedge counter used by the parallel peeling loops.
#[derive(Debug, Default)]
pub struct WedgeCounter(AtomicU64);

impl WedgeCounter {
    pub fn new() -> Self {
        Self::default()
    }
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;

    fn k33() -> BipartiteCsr {
        let mut e = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                e.push((u, v));
            }
        }
        from_edges(3, 3, &e).unwrap()
    }

    fn alive_vec(n: usize) -> Vec<AtomicBool> {
        (0..n).map(|_| AtomicBool::new(true)).collect()
    }

    #[test]
    fn peel_vertex_applies_shared_butterflies() {
        let g = k33();
        let view = g.view(Side::U);
        // Each u in K(3,3) has 6 butterflies.
        let support = SupportVec::from_counts(&[6, 6, 6]);
        let alive = alive_vec(3);
        alive[0].store(false, Ordering::Relaxed); // u0 being peeled
        let mut scratch = PeelScratch::new(3);
        let mut updated = Vec::new();
        let wedges = peel_vertex(&view, 0, 0, &support, &alive, &mut scratch, |u| {
            updated.push(u)
        });
        // u0 shares C(3,2)=3 butterflies with each of u1, u2.
        assert_eq!(support.get(1), 3);
        assert_eq!(support.get(2), 3);
        // Wedges: 3 secondary neighbours × 2 other endpoints.
        assert_eq!(wedges, 6);
        updated.sort_unstable();
        assert_eq!(updated, vec![1, 2]);
        // Scratch is clean for reuse.
        assert!(scratch.touched.is_empty());
        assert!(scratch.cnt.iter().all(|&c| c == 0));
    }

    #[test]
    fn peel_vertex_respects_floor_and_dead() {
        let g = k33();
        let view = g.view(Side::U);
        let support = SupportVec::from_counts(&[6, 6, 6]);
        let alive = alive_vec(3);
        alive[0].store(false, Ordering::Relaxed);
        alive[2].store(false, Ordering::Relaxed); // dead: no update
        let mut scratch = PeelScratch::new(3);
        let mut updated = Vec::new();
        peel_vertex(&view, 0, 5, &support, &alive, &mut scratch, |u| {
            updated.push(u)
        });
        assert_eq!(support.get(1), 5, "clamped at floor");
        assert_eq!(support.get(2), 6, "dead vertex untouched");
        assert_eq!(updated, vec![1]);
    }

    #[test]
    fn peelgraph_kill_and_compact() {
        let g = k33();
        let mut pg = PeelGraph::from_csr(&g, Side::U);
        assert_eq!(pg.live_count(), 3);
        pg.kill_batch(&[1]);
        assert_eq!(pg.live_count(), 2);
        assert!(!pg.is_alive(1));
        assert_eq!(pg.live_vertices(), vec![0, 2]);
        // Before compaction, traversal still sees u1 through v-lists.
        assert_eq!(pg.nbrs_secondary(0).len(), 3);
        pg.compact_now();
        assert_eq!(pg.nbrs_secondary(0).len(), 2);
        assert!(pg.nbrs_primary(1).is_empty());
        assert_eq!(pg.compactions(), 1);
        assert_eq!(pg.current_edges(), 6);
    }

    #[test]
    fn dgm_threshold_gates_compaction() {
        let g = k33();
        let mut pg = PeelGraph::from_csr(&g, Side::U);
        pg.kill_batch(&[0]);
        pg.note_wedges(3); // below m = 9
        assert!(!pg.maybe_compact(1.0));
        pg.note_wedges(10);
        assert!(pg.maybe_compact(1.0));
        // Counter resets after compaction.
        assert!(!pg.maybe_compact(1.0));
    }

    #[test]
    fn peelgraph_v_side() {
        let g = from_edges(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]).unwrap();
        let mut pg = PeelGraph::from_csr(&g, Side::V);
        assert_eq!(pg.num_primary(), 3);
        assert_eq!(pg.num_secondary(), 2);
        pg.kill_batch(&[2]);
        pg.compact_now();
        // u0 (a secondary vertex in this view) lost its edge to v2.
        assert_eq!(pg.nbrs_secondary(0).len(), 2);
        assert_eq!(pg.current_edges(), 4);
    }

    #[test]
    fn recount_cost_refreshes_on_compaction() {
        let g = k33();
        let mut pg = PeelGraph::from_csr(&g, Side::U);
        let before = pg.recount_cost();
        assert!(before > 0);
        pg.kill_batch(&[0, 1]);
        pg.compact_now();
        assert!(pg.recount_cost() < before);
    }

    #[test]
    fn peel_cost_tracks_current_structure() {
        let g = k33();
        let mut pg = PeelGraph::from_csr(&g, Side::U);
        assert_eq!(pg.peel_cost(0), 9); // 3 neighbours × degree 3
        pg.kill_batch(&[2]);
        pg.compact_now();
        assert_eq!(pg.peel_cost(0), 6); // v-degrees dropped to 2
    }

    #[test]
    fn recount_live_matches_fresh_count() {
        // Counting on the stale-ranked compacted structure must equal a
        // from-scratch count of the live subgraph.
        let g = bigraph::gen::zipf(50, 30, 300, 0.5, 0.9, 6);
        let mut pg = PeelGraph::from_csr(&g, Side::U);
        let dead: Vec<u32> = (0..50).step_by(3).collect();
        pg.kill_batch(&dead);
        let stale = pg.recount_live();
        let alive_u: Vec<bool> = (0..50).map(|u| u % 3 != 0).collect();
        let fresh_csr = bigraph::compact::compact(&g, &alive_u, &[true; 30]);
        let fresh = butterfly::count_graph(&fresh_csr);
        assert_eq!(stale.u, fresh.u);
        assert_eq!(stale.v, fresh.v);
    }

    /// Every primary sits on hub secondary 0 and on the private
    /// secondary of its triple, so it shares one butterfly with each of
    /// its two triple mates and none with anyone else.
    fn hub_with_triples(n: u32) -> BipartiteCsr {
        let edges: Vec<(u32, u32)> = (0..n).flat_map(|u| [(u, 0), (u, 1 + u / 3)]).collect();
        from_edges(n as usize, 1 + n.div_ceil(3) as usize, &edges).unwrap()
    }

    /// Star-heavy: one hub plus a few private leaves.
    fn star_heavy() -> BipartiteCsr {
        let mut edges = Vec::new();
        for u in 0..40u32 {
            edges.push((u, 0));
            edges.push((u, 1 + u % 7));
        }
        for u in 0..8u32 {
            edges.push((u, 8 + u));
        }
        from_edges(40, 16, &edges).unwrap()
    }

    #[test]
    fn seeded_peel_matches_bup_on_both_sides() {
        use bigraph::gen;
        let graphs = [
            ("uniform", gen::uniform(60, 50, 400, 1)),
            ("zipf", gen::zipf(90, 30, 450, 0.3, 1.2, 3)),
            ("bicliques", gen::planted_bicliques(48, 48, 4, 5, 5, 120, 4)),
            ("star-heavy", star_heavy()),
            ("hub-triples", hub_with_triples(96)),
            ("empty", BipartiteCsr::empty(3, 4)),
            // U vertices 3.. and V vertices 2.. are isolated.
            (
                "isolated",
                from_edges(12, 9, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]).unwrap(),
            ),
        ];
        for (name, g) in graphs {
            let counts = butterfly::count_graph(&g);
            for side in [Side::U, Side::V] {
                let view = g.view(side);
                let (want, bup_wedges) = crate::bup::peel_all(view, counts.side(side), 4);
                let (got, work) = seeded_peel(view, counts.side(side), 4);
                assert_eq!(got, want, "{name} side {side}");
                assert!(
                    work <= bup_wedges,
                    "{name} side {side}: {work} > {bup_wedges}"
                );
            }
        }
    }

    #[test]
    fn hub_skip_replaces_the_hub_scan() {
        let g = hub_with_triples(96);
        let counts = butterfly::count_graph(&g);
        let view = g.view(Side::U);
        let (want, bup_wedges) = crate::bup::peel_all(view, &counts.u, 4);
        let (got, work) = seeded_peel(view, &counts.u, 4);
        assert_eq!(got, want);
        assert!(got.iter().all(|&t| t == 2), "{got:?}");
        // Each peel scans its triple list (≤ 2 other entries) and tests
        // ≤ 2 hub memberships; walking the hub list instead would cost
        // Θ(n) per peel even with every dead entry dropped.
        assert!(work <= 4 * 96, "work {work}");
        assert!(bup_wedges > 96 * 95);
    }

    #[test]
    fn seeded_peel_compacts_dead_entries() {
        // K(3,3): BUP walks 3 × 2 wedges per peel (18). The live lists
        // shrink instead: the first peel visits 2 entries per list (6),
        // the second 1 per list after dropping the dead one (3), the last
        // none (0). The bitset skip never pays here: the other lists
        // touch every live vertex.
        let g = k33();
        let counts = butterfly::count_graph(&g);
        let (want, bup_wedges) = crate::bup::peel_all(g.view(Side::U), &counts.u, 4);
        let (got, work) = seeded_peel(g.view(Side::U), &counts.u, 4);
        assert_eq!(got, want);
        assert_eq!(bup_wedges, 18);
        assert_eq!(work, 9);
    }
}
