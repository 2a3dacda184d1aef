//! Sorted-set intersection kernels for wedge enumeration.
//!
//! Butterfly counting spends its time intersecting adjacency lists, and
//! real bipartite graphs hand those lists to us with wildly skewed sizes
//! (a hub against a leaf). One kernel cannot be right for every shape,
//! so this module offers three, all over ascending duplicate-free inputs,
//! plus the selection heuristic the dynamic counter uses:
//!
//! * [`intersect_merge`] — the scalar two-pointer sorted merge. Optimal
//!   when the lists are comparable in size; `O(|a| + |b|)`.
//! * [`intersect_gallop`] — exponential (galloping) search of the
//!   *smaller* list's elements into the *larger* list, resuming where the
//!   previous probe left off; `O(|small| · log |large|)`, the classic win
//!   once the size ratio passes [`GALLOP_RATIO`].
//! * [`intersect_bitset`] — membership streaming against a pre-built
//!   [`VertexBitset`] of a hub's neighborhood; `O(|stream|)` per
//!   intersection after an `O(|hub|)` build, amortized across the hub's
//!   many wedges.
//!
//! Every kernel returns its **work in comparable units** — one unit per
//! element visit or comparison probe (merge steps, gallop probes, bitset
//! membership tests). The `update_work`/`recount_work` telemetry the
//! `repro` harness reports therefore keeps its meaning regardless of
//! which kernel ran.
//!
//! The thresholds are deliberately conservative: toy graphs (goldens,
//! unit fixtures) never trip them, so kernel selection cannot perturb
//! pinned work numbers at test scale, while hub-heavy realistic graphs
//! trip them exactly where the asymptotics pay.

use bigraph::VertexId;

/// Minimum large-to-small size ratio before galloping beats the merge.
pub const GALLOP_RATIO: usize = 8;
/// Minimum size of the *larger* list before galloping is considered:
/// below this, both lists fit in cache lines and the merge's simple
/// loop wins on constants.
pub const GALLOP_MIN: usize = 64;
/// Minimum hub degree before building a neighborhood bitset pays. The
/// build is `O(hub degree)` and is amortized over every wedge through
/// the hub, so the bar is the same order as [`GALLOP_MIN`].
pub const BITSET_MIN: usize = 64;

/// Should `small` be galloped into `large`? (Sizes, not slices — the
/// caller knows both degrees before materializing anything.)
pub fn should_gallop(small: usize, large: usize) -> bool {
    large >= GALLOP_MIN && large >= small.saturating_mul(GALLOP_RATIO)
}

/// Scalar two-pointer intersection of two ascending streams; calls `hit`
/// for every common element and returns the number of merge steps.
pub fn intersect_merge(
    a: impl Iterator<Item = VertexId>,
    b: impl Iterator<Item = VertexId>,
    mut hit: impl FnMut(VertexId),
) -> u64 {
    let mut a = a.peekable();
    let mut b = b.peekable();
    let mut steps = 0u64;
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        steps += 1;
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                a.next();
            }
            std::cmp::Ordering::Greater => {
                b.next();
            }
            std::cmp::Ordering::Equal => {
                hit(x);
                a.next();
                b.next();
            }
        }
    }
    steps
}

/// Galloping partition point: the length of the longest prefix of `xs`
/// whose elements satisfy `pred` (which must be prefix-closed over `xs`:
/// true for a prefix, false for the rest — e.g. any threshold predicate
/// over a sorted slice). Exponential step-doubling brackets the
/// boundary in `O(log p)` probes where `p` is the prefix length, then a
/// binary search pins it — cheap when the answer is near the front,
/// which is exactly the rank-boundary case in the wedge loops.
pub fn gallop_partition_point<T>(xs: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    match xs.first() {
        None => return 0,
        Some(x) if !pred(x) => return 0,
        Some(_) => {}
    }
    // Invariant: pred(xs[lo]) is true; the boundary is in (lo, lo+step].
    let mut lo = 0usize;
    let mut step = 1usize;
    while lo + step < xs.len() && pred(&xs[lo + step]) {
        lo += step;
        step <<= 1;
    }
    // Boundary is in (lo, lo+step]: pred(xs[lo]) holds, and xs[lo+step]
    // either fails pred or falls off the end.
    let mut hi = (lo + step).min(xs.len());
    let mut l = lo + 1;
    while l < hi {
        let m = l + (hi - l) / 2;
        if pred(&xs[m]) {
            l = m + 1;
        } else {
            hi = m;
        }
    }
    l
}

/// Galloping intersection: walks the (smaller) `small` stream and
/// exponential-searches each element into the (larger, random-access)
/// `large` slice, resuming from the previous match position so the
/// combined probes stay `O(|small| · log |large|)` even adversarially.
/// Calls `hit` per common element; returns the probe count (the work
/// metric, comparable to merge steps — one comparison each).
pub fn intersect_gallop(
    small: impl Iterator<Item = VertexId>,
    large: &[VertexId],
    mut hit: impl FnMut(VertexId),
) -> u64 {
    let mut probes = 0u64;
    let mut rest = large;
    for x in small {
        if rest.is_empty() {
            break;
        }
        // Longest prefix of `rest` strictly below `x`; count every
        // predicate evaluation as one probe.
        let skip = gallop_partition_point(rest, |&y| {
            probes += 1;
            y < x
        });
        rest = &rest[skip..];
        match rest.first() {
            Some(&y) if y == x => {
                hit(x);
                rest = &rest[1..];
            }
            _ => {}
        }
    }
    probes
}

/// Dense membership bitset over a vertex id space, built once per hub
/// neighborhood and streamed against by [`intersect_bitset`].
pub struct VertexBitset {
    words: Vec<u64>,
}

impl VertexBitset {
    /// All-empty bitset covering ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        VertexBitset {
            words: vec![0; universe.div_ceil(64)],
        }
    }

    /// Builds directly from a neighborhood iterator.
    pub fn from_iter(universe: usize, members: impl Iterator<Item = VertexId>) -> Self {
        let mut bs = Self::new(universe);
        for m in members {
            bs.insert(m);
        }
        bs
    }

    pub fn insert(&mut self, v: VertexId) {
        self.words[v as usize / 64] |= 1u64 << (v % 64);
    }

    pub fn remove(&mut self, v: VertexId) {
        self.words[v as usize / 64] &= !(1u64 << (v % 64));
    }

    pub fn contains(&self, v: VertexId) -> bool {
        let i = v as usize / 64;
        self.words.get(i).is_some_and(|w| w >> (v % 64) & 1 == 1)
    }
}

/// Bitset intersection: streams `stream` against a pre-built hub
/// neighborhood bitset, calling `hit` per member. Work is one membership
/// test per streamed element (the build's `O(hub)` cost is charged once
/// by the caller, amortized over the hub's wedges).
pub fn intersect_bitset(
    bits: &VertexBitset,
    stream: impl Iterator<Item = VertexId>,
    mut hit: impl FnMut(VertexId),
) -> u64 {
    let mut tests = 0u64;
    for x in stream {
        tests += 1;
        if bits.contains(x) {
            hit(x);
        }
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_merge(a: &[VertexId], b: &[VertexId]) -> (Vec<VertexId>, u64) {
        let mut out = Vec::new();
        let w = intersect_merge(a.iter().copied(), b.iter().copied(), |x| out.push(x));
        (out, w)
    }

    fn collect_gallop(small: &[VertexId], large: &[VertexId]) -> (Vec<VertexId>, u64) {
        let mut out = Vec::new();
        let w = intersect_gallop(small.iter().copied(), large, |x| out.push(x));
        (out, w)
    }

    fn collect_bitset(a: &[VertexId], b: &[VertexId]) -> (Vec<VertexId>, u64) {
        let universe = a
            .iter()
            .chain(b)
            .map(|&x| x as usize + 1)
            .max()
            .unwrap_or(0);
        let bits = VertexBitset::from_iter(universe, a.iter().copied());
        let mut out = Vec::new();
        let w = intersect_bitset(&bits, b.iter().copied(), |x| out.push(x));
        (out, w)
    }

    #[test]
    fn kernels_agree_on_fixtures() {
        let cases: Vec<(Vec<VertexId>, Vec<VertexId>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![1, 3, 5], vec![2, 4, 6]),
            (vec![1, 3, 5], vec![1, 3, 5]),
            (vec![2, 9, 40], (0..100).collect()),
            ((0..50).map(|x| x * 3).collect(), (0..150).collect()),
        ];
        for (a, b) in cases {
            let (m, _) = collect_merge(&a, &b);
            let (g, _) = collect_gallop(&a, &b);
            let (bs, _) = collect_bitset(&a, &b);
            assert_eq!(m, g, "gallop vs merge on {a:?} ∩ {b:?}");
            // Bitset streams `b`, so hits arrive in `b` order — ascending,
            // same as the others.
            assert_eq!(m, bs, "bitset vs merge on {a:?} ∩ {b:?}");
        }
    }

    #[test]
    fn gallop_partition_point_matches_std() {
        let xs: Vec<VertexId> = (0..257).map(|x| x * 2).collect();
        for threshold in 0..520 {
            assert_eq!(
                gallop_partition_point(&xs, |&x| x < threshold),
                xs.partition_point(|&x| x < threshold),
                "threshold {threshold}"
            );
        }
        assert_eq!(gallop_partition_point::<VertexId>(&[], |_| true), 0);
    }

    #[test]
    fn gallop_work_beats_merge_on_skewed_sizes() {
        let small: Vec<VertexId> = (0..16).map(|x| x * 1000).collect();
        let large: Vec<VertexId> = (0..16_000).collect();
        let (hits_m, work_m) = collect_merge(&small, &large);
        let (hits_g, work_g) = collect_gallop(&small, &large);
        assert_eq!(hits_m, hits_g);
        assert!(
            work_g * 10 < work_m,
            "galloping must be far cheaper on 1000× skew (gallop {work_g}, merge {work_m})"
        );
    }

    #[test]
    fn should_gallop_respects_floor_and_ratio() {
        assert!(!should_gallop(4, 32), "below GALLOP_MIN");
        assert!(!should_gallop(32, 128), "ratio too small");
        assert!(should_gallop(8, 64));
        assert!(should_gallop(0, 64));
    }

    #[test]
    fn bitset_handles_out_of_universe_queries() {
        let bits = VertexBitset::from_iter(10, [1, 9].into_iter());
        assert!(bits.contains(1) && bits.contains(9));
        assert!(!bits.contains(0) && !bits.contains(8));
        assert!(!bits.contains(64), "past the allocated words");
    }

    #[test]
    fn bitset_remove_clears_only_its_bit() {
        let mut bits = VertexBitset::from_iter(130, [0, 63, 64, 129].into_iter());
        bits.remove(63);
        bits.remove(5); // absent: no-op
        assert!(!bits.contains(63) && !bits.contains(5));
        assert!(bits.contains(0) && bits.contains(64) && bits.contains(129));
    }
}
