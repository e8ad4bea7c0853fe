//! Compact fixed-width bit set.
//!
//! Used for row selections during mining and for the covered-group sets
//! `Cov(P_g)` of grouping patterns (Definition 4.4), where fast union,
//! intersection, count and equality are on the hot path of both the Apriori
//! miner and the LP/greedy summarizers.
//!
//! Two families of operations matter for performance:
//!
//! * **word-batched kernels** — [`BitSet::count`],
//!   [`BitSet::intersection_count`], [`BitSet::intersect_with`],
//!   [`BitSet::difference_count`] and [`BitSet::union_count`] process the
//!   word array in 4-word chunks (with a scalar tail), which the compiler
//!   turns into straight-line popcount code without per-iteration
//!   bookkeeping;
//! * **word-level walkers** — [`BitSet::for_each_set`],
//!   [`BitSet::for_each_common`] and [`BitSet::for_each_difference`] visit
//!   the set positions of one set, or of `a ∩ b` / `a ∖ b`, one word at a
//!   time without materializing the combined set;
//! * **projection** — [`Projector`] re-indexes row sets from full-table
//!   coordinates into the local coordinates of a subpopulation (the rank of
//!   each row among the subpopulation's rows), so that a lattice walk over
//!   a small subpopulation intersects `|subpop|`-bit masks instead of
//!   `|D|`-bit ones.

/// Fixed-capacity bit set backed by `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

impl BitSet {
    /// All-zero set with capacity `nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            words: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }

    /// All-one set with capacity `nbits`.
    pub fn full(nbits: usize) -> Self {
        let mut s = BitSet {
            words: vec![!0u64; nbits.div_ceil(64)],
            nbits,
        };
        s.clear_tail();
        s
    }

    /// Build from a boolean mask.
    pub fn from_mask(mask: &[bool]) -> Self {
        let mut s = BitSet::new(mask.len());
        for (i, &b) in mask.iter().enumerate() {
            if b {
                s.insert(i);
            }
        }
        s
    }

    fn clear_tail(&mut self) {
        let rem = self.nbits % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Set bit `i`.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.nbits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.nbits);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        let mut chunks = self.words.chunks_exact(4);
        let mut acc = 0usize;
        for c in chunks.by_ref() {
            acc += (c[0].count_ones() + c[1].count_ones() + c[2].count_ones() + c[3].count_ones())
                as usize;
        }
        for &w in chunks.remainder() {
            acc += w.count_ones() as usize;
        }
        acc
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut a = self.words.chunks_exact_mut(4);
        let mut b = other.words.chunks_exact(4);
        for (ca, cb) in a.by_ref().zip(b.by_ref()) {
            ca[0] &= cb[0];
            ca[1] &= cb[1];
            ca[2] &= cb[2];
            ca[3] &= cb[3];
        }
        for (wa, wb) in a.into_remainder().iter_mut().zip(b.remainder()) {
            *wa &= wb;
        }
    }

    /// Size of the intersection without materializing it.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut a = self.words.chunks_exact(4);
        let mut b = other.words.chunks_exact(4);
        let mut acc = 0usize;
        for (ca, cb) in a.by_ref().zip(b.by_ref()) {
            acc += ((ca[0] & cb[0]).count_ones()
                + (ca[1] & cb[1]).count_ones()
                + (ca[2] & cb[2]).count_ones()
                + (ca[3] & cb[3]).count_ones()) as usize;
        }
        for (wa, wb) in a.remainder().iter().zip(b.remainder()) {
            acc += (wa & wb).count_ones() as usize;
        }
        acc
    }

    /// Size of `self ∖ other` without materializing it.
    pub fn difference_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut a = self.words.chunks_exact(4);
        let mut b = other.words.chunks_exact(4);
        let mut acc = 0usize;
        for (ca, cb) in a.by_ref().zip(b.by_ref()) {
            acc += ((ca[0] & !cb[0]).count_ones()
                + (ca[1] & !cb[1]).count_ones()
                + (ca[2] & !cb[2]).count_ones()
                + (ca[3] & !cb[3]).count_ones()) as usize;
        }
        for (wa, wb) in a.remainder().iter().zip(b.remainder()) {
            acc += (wa & !wb).count_ones() as usize;
        }
        acc
    }

    /// Materialize `self ∖ other` (bits set in `self` but not `other`).
    /// Used by the lattice walk's incremental Gram downdating to enumerate
    /// the rows a subset candidate dropped from its parent.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        debug_assert_eq!(self.nbits, other.nbits);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & !b)
            .collect();
        BitSet {
            words,
            nbits: self.nbits,
        }
    }

    /// Size of `self ∪ other` without materializing it.
    pub fn union_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut a = self.words.chunks_exact(4);
        let mut b = other.words.chunks_exact(4);
        let mut acc = 0usize;
        for (ca, cb) in a.by_ref().zip(b.by_ref()) {
            acc += ((ca[0] | cb[0]).count_ones()
                + (ca[1] | cb[1]).count_ones()
                + (ca[2] | cb[2]).count_ones()
                + (ca[3] | cb[3]).count_ones()) as usize;
        }
        for (wa, wb) in a.remainder().iter().zip(b.remainder()) {
            acc += (wa | wb).count_ones() as usize;
        }
        acc
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Re-index this set into the local coordinates of `universe`: bit `i`
    /// of the result is set iff the `i`-th smallest element of `universe`
    /// is in `self`. Elements of `self` outside `universe` are dropped.
    /// One-shot convenience for [`Projector::project`]; build a
    /// [`Projector`] once when projecting many sets onto the same universe.
    pub fn project(&self, universe: &BitSet) -> BitSet {
        Projector::new(universe).project(self)
    }

    /// Iterate over set bit positions in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Call `visit` with every set bit position in increasing order, one
    /// word at a time — the internal-iteration form of [`BitSet::iter`]
    /// for hot row loops, which it outruns there.
    #[inline]
    pub fn for_each_set(&self, mut visit: impl FnMut(usize)) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                visit(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// The positions of the set bits whose ranks (their indices among the
    /// set bits, in increasing order) are `ranks`, which must ascend and
    /// each lie below [`BitSet::count`]. One pass over the words, skipping
    /// a word by its popcount: `O(ranks + words)`, however many bits are
    /// set.
    ///
    /// ```
    /// use table::bitset::BitSet;
    ///
    /// let s = BitSet::from_mask(&[false, true, true, false, true, true]);
    /// assert_eq!(s.select(&[0, 2, 3]), vec![1, 4, 5]);
    /// ```
    pub fn select(&self, ranks: &[u32]) -> Vec<usize> {
        let mut out = Vec::with_capacity(ranks.len());
        // Word `wi` holds the set bits of ranks `below..`.
        let (mut wi, mut below) = (0, 0);
        for &r in ranks {
            let r = r as usize;
            assert!(r >= below, "ranks must ascend");
            loop {
                let ones = self.words[wi].count_ones() as usize;
                if r < below + ones {
                    break;
                }
                below += ones;
                wi += 1;
            }
            let mut w = self.words[wi];
            for _ in below..r {
                w &= w - 1;
            }
            out.push(wi * 64 + w.trailing_zeros() as usize);
        }
        out
    }

    /// Call `visit` with every position of `self ∩ other` in increasing
    /// order, one word at a time, without materializing the intersection.
    #[inline]
    pub fn for_each_common(&self, other: &BitSet, visit: impl FnMut(usize)) {
        self.walk_words(other, |a, b| a & b, visit);
    }

    /// Call `visit` with every position of `self ∖ other` in increasing
    /// order, one word at a time, without materializing the difference.
    #[inline]
    pub fn for_each_difference(&self, other: &BitSet, visit: impl FnMut(usize)) {
        self.walk_words(other, |a, b| a & !b, visit);
    }

    #[inline]
    fn walk_words(
        &self,
        other: &BitSet,
        combine: impl Fn(u64, u64) -> u64,
        mut visit: impl FnMut(usize),
    ) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut w = combine(a, b);
            while w != 0 {
                visit(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Split the positions `0..len` by slot: `slots` yields the slot of
    /// each position in order, every one below `n`, and set `s` of the
    /// result holds the positions of slot `s`, at width `len`. One pass:
    /// each position sets its bit in its slot's current word, and the `n`
    /// words are stored every 64 positions.
    pub fn partition(len: usize, n: usize, slots: impl IntoIterator<Item = usize>) -> Vec<BitSet> {
        let mut sets = vec![BitSet::new(len); n];
        let mut word = vec![0u64; n];
        let mut flush = |w: usize, word: &mut [u64]| {
            for (set, bits) in sets.iter_mut().zip(word) {
                set.words[w] = std::mem::take(bits);
            }
        };
        let mut i = 0;
        for s in slots {
            word[s] |= 1 << (i % 64);
            i += 1;
            if i % 64 == 0 {
                flush(i / 64 - 1, &mut word);
            }
        }
        assert_eq!(i, len, "one slot per position");
        if i % 64 != 0 {
            flush(i / 64, &mut word);
        }
        sets
    }

    /// Materialize as a boolean mask of length `capacity()`.
    pub fn to_mask(&self) -> Vec<bool> {
        let mut m = vec![false; self.nbits];
        for i in self.iter() {
            m[i] = true;
        }
        m
    }
}

/// A reusable global→local rank map for one universe set.
///
/// The universe (e.g. a subpopulation's row set) defines a dense local
/// index space `0..universe.count()`: the local index of a universe element
/// is its rank among the universe's elements in increasing order. The
/// projector precomputes per-word rank prefixes once, so projecting a
/// global set costs one popcount per set bit of the intersection plus one
/// AND per word — no per-bit scan of the universe.
///
/// [`Projector::project`] maps full-width sets down (dropping bits outside
/// the universe); [`Projector::unproject`] scatters a local set back to
/// full width. `unproject(project(s))` equals `s ∩ universe`, and
/// `project(unproject(l))` is the identity.
///
/// ```
/// use table::bitset::{BitSet, Projector};
///
/// // Universe = the even rows of a 10-row table.
/// let universe = BitSet::from_mask(&[true, false, true, false, true,
///                                    false, true, false, true, false]);
/// let p = Projector::new(&universe);
/// assert_eq!(p.len(), 5);
///
/// // Rows {2, 3, 4} project to local ranks {1, 2}: row 3 is outside the
/// // universe and drops, rows 2 and 4 are its 2nd and 3rd elements.
/// let mut s = BitSet::new(10);
/// for i in [2, 3, 4] { s.insert(i); }
/// let local = p.project(&s);
/// assert_eq!(local.iter().collect::<Vec<_>>(), vec![1, 2]);
///
/// // Unprojection scatters back: local {1, 2} → global {2, 4}.
/// let back = p.unproject(&local);
/// assert_eq!(back.iter().collect::<Vec<_>>(), vec![2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Projector {
    universe: BitSet,
    /// `rank[wi]` = number of universe bits in words `0..wi`.
    rank: Vec<usize>,
    n_local: usize,
}

impl Projector {
    /// Build the rank map for `universe`.
    pub fn new(universe: &BitSet) -> Self {
        let mut rank = Vec::with_capacity(universe.words.len());
        let mut acc = 0usize;
        for &w in &universe.words {
            rank.push(acc);
            acc += w.count_ones() as usize;
        }
        Projector {
            universe: universe.clone(),
            rank,
            n_local: acc,
        }
    }

    /// The universe this projector was built from.
    pub fn universe(&self) -> &BitSet {
        &self.universe
    }

    /// Width of the local index space (`universe.count()`).
    pub fn len(&self) -> usize {
        self.n_local
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.n_local == 0
    }

    /// Project a full-width set into local coordinates (see type docs).
    pub fn project(&self, global: &BitSet) -> BitSet {
        let mut out = BitSet::new(self.n_local);
        self.for_each_local(global, |l| out.insert(l));
        out
    }

    /// Call `visit` with the local index of every element of `global ∩
    /// universe`, in increasing order — [`Projector::project`] without
    /// materializing the set. Each word of `global` is ANDed with the
    /// universe's word first, so a bit outside the universe is never
    /// visited.
    #[inline]
    pub fn for_each_local(&self, global: &BitSet, mut visit: impl FnMut(usize)) {
        debug_assert_eq!(global.nbits, self.universe.nbits);
        for (wi, (&g, &u)) in global.words.iter().zip(&self.universe.words).enumerate() {
            let mut m = g & u;
            if m == 0 {
                continue;
            }
            let base = self.rank[wi];
            while m != 0 {
                let b = m.trailing_zeros();
                let below = u & ((1u64 << b) - 1);
                visit(base + below.count_ones() as usize);
                m &= m - 1;
            }
        }
    }

    /// Scatter a local set back to full-table width.
    pub fn unproject(&self, local: &BitSet) -> BitSet {
        debug_assert_eq!(local.nbits, self.n_local);
        let mut out = BitSet::new(self.universe.nbits);
        let mut it = local.iter().peekable();
        for (wi, &u) in self.universe.words.iter().enumerate() {
            let base = self.rank[wi];
            let in_word = u.count_ones() as usize;
            if in_word == 0 {
                continue;
            }
            let mut w = u;
            let mut r = base;
            while w != 0 {
                match it.peek() {
                    Some(&l) if l < base + in_word => {
                        let tz = w.trailing_zeros() as usize;
                        if l == r {
                            out.insert(wi * 64 + tz);
                            it.next();
                        }
                        w &= w - 1;
                        r += 1;
                    }
                    _ => break,
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        for i in 0..50 {
            a.insert(i);
        }
        for i in 25..75 {
            b.insert(i);
        }
        assert_eq!(a.intersection_count(&b), 25);
        assert_eq!(a.difference_count(&b), 25);
        assert_eq!(b.difference_count(&a), 25);
        assert_eq!(a.union_count(&b), 75);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 75);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.count(), 25);
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    /// The word-batched kernels must agree with per-bit ground truth on
    /// widths that exercise every chunk/tail split (0–4 full chunks ± a
    /// partial word).
    #[test]
    fn batched_kernels_match_naive_all_tail_shapes() {
        for nbits in [0, 1, 63, 64, 65, 127, 128, 255, 256, 257, 300, 517] {
            let mut a = BitSet::new(nbits);
            let mut b = BitSet::new(nbits);
            for i in 0..nbits {
                if i % 3 == 0 || i % 7 == 1 {
                    a.insert(i);
                }
                if i % 2 == 0 || i % 5 == 3 {
                    b.insert(i);
                }
            }
            let inter = (0..nbits)
                .filter(|&i| a.contains(i) && b.contains(i))
                .count();
            let diff = (0..nbits)
                .filter(|&i| a.contains(i) && !b.contains(i))
                .count();
            let uni = (0..nbits)
                .filter(|&i| a.contains(i) || b.contains(i))
                .count();
            assert_eq!(a.count(), (0..nbits).filter(|&i| a.contains(i)).count());
            assert_eq!(a.intersection_count(&b), inter, "nbits={nbits}");
            assert_eq!(a.difference_count(&b), diff, "nbits={nbits}");
            assert_eq!(a.union_count(&b), uni, "nbits={nbits}");
            let mut m = a.clone();
            m.intersect_with(&b);
            assert_eq!(m.count(), inter, "nbits={nbits}");
            for i in 0..nbits {
                assert_eq!(m.contains(i), a.contains(i) && b.contains(i));
            }
            let d = a.difference(&b);
            assert_eq!(d.count(), diff, "nbits={nbits}");
            for i in 0..nbits {
                assert_eq!(d.contains(i), a.contains(i) && !b.contains(i));
            }
            // The word-level walkers visit exactly the materialized sets.
            let mut seen = Vec::new();
            a.for_each_common(&b, |i| seen.push(i));
            assert_eq!(seen, m.iter().collect::<Vec<_>>(), "nbits={nbits}");
            seen.clear();
            a.for_each_difference(&b, |i| seen.push(i));
            assert_eq!(seen, d.iter().collect::<Vec<_>>(), "nbits={nbits}");
        }
    }

    /// `partition` puts every position in its slot's set, at every tail
    /// shape: the same sets as one insert per position.
    #[test]
    fn partition_matches_per_position_inserts() {
        for len in [0, 1, 63, 64, 65, 127, 128, 129, 300] {
            for n in [1, 3, 7] {
                let slot = |i: usize| (i * 7 + i / 5) % n;
                let mut want = vec![BitSet::new(len); n];
                for i in 0..len {
                    want[slot(i)].insert(i);
                }
                assert_eq!(
                    BitSet::partition(len, n, (0..len).map(slot)),
                    want,
                    "{len}/{n}"
                );
            }
        }
    }

    #[test]
    fn iter_matches_mask() {
        let mask = vec![true, false, true, true, false];
        let s = BitSet::from_mask(&mask);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(s.to_mask(), mask);
        // The word-level walker visits the same bits in the same order,
        // across word boundaries too.
        let wide = BitSet::from_mask(&(0..300).map(|i| i % 7 == 0 || i == 63).collect::<Vec<_>>());
        let mut seen = Vec::new();
        wide.for_each_set(|i| seen.push(i));
        assert_eq!(seen, wide.iter().collect::<Vec<_>>());
    }

    #[test]
    fn select_reads_positions_by_rank() {
        for n in [1, 63, 64, 65, 300] {
            let s = BitSet::from_mask(&(0..n).map(|i| i % 5 != 2 && i != 64).collect::<Vec<_>>());
            let all: Vec<usize> = s.iter().collect();
            // Every rank, every other rank, and the last rank alone.
            let ranks: Vec<u32> = (0..all.len() as u32).collect();
            assert_eq!(s.select(&ranks), all, "{n}");
            let odd: Vec<u32> = ranks.iter().copied().filter(|r| r % 2 == 1).collect();
            let want: Vec<usize> = odd.iter().map(|&r| all[r as usize]).collect();
            assert_eq!(s.select(&odd), want, "{n}");
            assert_eq!(
                s.select(&ranks[ranks.len() - 1..]),
                vec![all[all.len() - 1]]
            );
        }
        assert!(BitSet::new(10).select(&[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn select_past_the_last_set_bit_panics() {
        BitSet::from_mask(&[true, false, true]).select(&[2]);
    }

    #[test]
    fn equality_is_structural() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(3);
        b.insert(3);
        assert_eq!(a, b);
        b.insert(4);
        assert_ne!(a, b);
    }

    #[test]
    fn projector_ranks_and_roundtrip() {
        // Universe = every third bit of a 200-bit space.
        let n = 200;
        let mut universe = BitSet::new(n);
        for i in (0..n).step_by(3) {
            universe.insert(i);
        }
        let p = Projector::new(&universe);
        assert_eq!(p.len(), universe.count());
        assert_eq!(p.universe(), &universe);

        // Project a set straddling the universe.
        let mut g = BitSet::new(n);
        for i in [0, 1, 3, 66, 99, 150, 198, 199] {
            g.insert(i);
        }
        let local = p.project(&g);
        assert_eq!(local.capacity(), p.len());
        let expected: Vec<usize> = universe
            .iter()
            .enumerate()
            .filter(|&(_, i)| g.contains(i))
            .map(|(rank, _)| rank)
            .collect();
        assert_eq!(local.iter().collect::<Vec<_>>(), expected);

        // Round-trips: unproject ∘ project = ∩ universe; project ∘
        // unproject = id.
        let back = p.unproject(&local);
        let mut expect_back = g.clone();
        expect_back.intersect_with(&universe);
        assert_eq!(back, expect_back);
        assert_eq!(p.project(&back), local);

        // One-shot convenience matches the reusable projector.
        assert_eq!(g.project(&universe), local);
    }

    #[test]
    fn projector_preserves_intersection_structure() {
        // Projection is a lattice homomorphism on subsets of the universe:
        // project(a ∩ b) == project(a) ∩ project(b), and counts restricted
        // to the universe are preserved.
        let n = 150;
        let mut universe = BitSet::new(n);
        let mut a = BitSet::new(n);
        let mut b = BitSet::new(n);
        for i in 0..n {
            if i % 2 == 0 || i % 5 == 0 {
                universe.insert(i);
            }
            if i % 3 != 1 {
                a.insert(i);
            }
            if i % 4 != 2 {
                b.insert(i);
            }
        }
        let p = Projector::new(&universe);
        let (la, lb) = (p.project(&a), p.project(&b));
        let mut ab = a.clone();
        ab.intersect_with(&b);
        let mut lab = la.clone();
        lab.intersect_with(&lb);
        assert_eq!(p.project(&ab), lab);
        assert_eq!(la.count(), a.intersection_count(&universe));
        assert_eq!(lab.count(), ab.intersection_count(&universe));
    }

    #[test]
    fn projector_empty_and_full_universe() {
        let g = {
            let mut g = BitSet::new(100);
            g.insert(7);
            g.insert(70);
            g
        };
        // Empty universe → zero-width locals.
        let p = Projector::new(&BitSet::new(100));
        assert!(p.is_empty());
        assert_eq!(p.project(&g).capacity(), 0);
        assert_eq!(p.unproject(&BitSet::new(0)), BitSet::new(100));
        // Full universe → projection is the identity.
        let p = Projector::new(&BitSet::full(100));
        assert_eq!(p.project(&g), g);
        assert_eq!(p.unproject(&g), g);
    }
}
