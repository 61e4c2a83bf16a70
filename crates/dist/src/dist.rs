//! Finite discrete distributions over `f64` values.

/// Reusable scratch arena for the distribution kernels
/// ([`DiscreteDist::convolve_with`],
/// [`DiscreteDist::max_independent_with`],
/// [`DiscreteDist::reduce_support_in_place_with`]).
///
/// It holds the stream-merge heap of the binary operations and the
/// support coarsening's lazy pair heap with its linked-list buffers,
/// so a caller evaluating thousands of series-parallel reductions
/// (Dodin's forward pass, the SP engine) performs **no** intermediate
/// allocations after the first call: only the result vector of each
/// convolution or maximum is allocated. The independent maximum of
/// sorted supports needs no scratch at all.
///
/// The arena is plain state — create one with [`DistScratch::new`] (or
/// `Default`), hold it next to whatever long-lived evaluator owns the
/// hot loop, and pass it to every `*_with` call. Sharing one arena
/// across different distributions and operations is fine; the contents
/// carry no information between calls.
#[derive(Clone, Debug, Default)]
pub struct DistScratch {
    /// Min-heap of row/column merge cursors, keyed by `(value, i, j)`.
    cursors: Vec<PairCursor>,
    /// Lazy-deletion min-heap of adjacent-pair merge costs.
    pairs: Vec<PairCost>,
    /// Doubly linked list over the surviving atoms of a coarsening
    /// (`NONE` marks a missing neighbour).
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Per-atom stamp, bumped whenever the pair starting at that atom
    /// changes or the atom is merged away; a heap entry with an older
    /// stamp is stale.
    stamp: Vec<u32>,
}

impl DistScratch {
    /// An empty arena; buffers grow on first use and are reused after.
    pub fn new() -> DistScratch {
        DistScratch::default()
    }
}

/// Missing linked-list neighbour.
const NONE: u32 = u32::MAX;

/// The next not-yet-emitted element `op(xs[i], ys[j])` of one row or
/// column of a binary operation's `n × m` cross product.
#[derive(Clone, Copy, Debug)]
struct PairCursor {
    v: f64,
    i: u32,
    j: u32,
}

impl PairCursor {
    /// Smaller value first; equal values in row-major `(i, j)` order —
    /// the order a stable sort of the row-major pair stream produces.
    #[inline]
    fn before(&self, other: &PairCursor) -> bool {
        match self.v.total_cmp(&other.v) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => (self.i, self.j) < (other.i, other.j),
            std::cmp::Ordering::Greater => false,
        }
    }
}

/// A candidate merge of the adjacent pair starting at atom `i`.
#[derive(Clone, Copy, Debug)]
struct PairCost {
    cost: f64,
    i: u32,
    stamp: u32,
}

impl PairCost {
    /// Cheaper first; equal costs by atom index, which is also the
    /// position order of the surviving atoms. Costs are never NaN (see
    /// [`merge_cost`]) and compare with `<`, like the original scan.
    #[inline]
    fn before(&self, other: &PairCost) -> bool {
        self.cost < other.cost || (self.cost == other.cost && self.i < other.i)
    }
}

/// Restore the min-heap property downward from `i`.
fn sift_down<T>(heap: &mut [T], mut i: usize, before: impl Fn(&T, &T) -> bool) {
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            return;
        }
        let r = l + 1;
        let child = if r < heap.len() && before(&heap[r], &heap[l]) {
            r
        } else {
            l
        };
        if before(&heap[child], &heap[i]) {
            heap.swap(child, i);
            i = child;
        } else {
            return;
        }
    }
}

/// Restore the min-heap property upward from `i`.
fn sift_up<T>(heap: &mut [T], mut i: usize, before: impl Fn(&T, &T) -> bool) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if !before(&heap[i], &heap[parent]) {
            return;
        }
        heap.swap(i, parent);
        i = parent;
    }
}

/// Variance distortion of merging adjacent atoms `a` and `b` — the
/// coarsening's greedy criterion. Costs that are not finite (NaN from
/// `0·∞`, or an overflow) compare as `+∞`: the original linear scan
/// (`cost < best` from `best = ∞`) never picks them over a finite cost.
#[inline]
fn merge_cost((v1, p1): (f64, f64), (v2, p2): (f64, f64)) -> f64 {
    let cost = p1 * p2 / (p1 + p2) * (v2 - v1) * (v2 - v1);
    if cost < f64::INFINITY {
        cost
    } else {
        f64::INFINITY
    }
}

/// A finite discrete distribution: sorted support values with strictly
/// positive probabilities summing to 1 (up to rounding).
///
/// The in-place operations the series-parallel machinery needs —
/// convolution (sum of independent variables), independent maximum, and
/// mean-preserving support coarsening — are all closed over this
/// representation.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscreteDist {
    /// `(value, probability)` pairs, sorted by value, probabilities > 0.
    atoms: Vec<(f64, f64)>,
}

impl DiscreteDist {
    /// Point mass at `v`.
    pub fn point(v: f64) -> DiscreteDist {
        assert!(v.is_finite(), "support value must be finite, got {v}");
        DiscreteDist {
            atoms: vec![(v, 1.0)],
        }
    }

    /// Build from `(value, probability)` pairs: sorts, merges equal
    /// values, drops zero-probability atoms.
    ///
    /// # Panics
    /// Panics on empty/invalid input or probabilities far from summing
    /// to 1.
    pub fn from_atoms(mut atoms: Vec<(f64, f64)>) -> DiscreteDist {
        assert!(!atoms.is_empty(), "a distribution needs at least one atom");
        for &(v, p) in &atoms {
            assert!(v.is_finite(), "support value must be finite, got {v}");
            assert!(
                p.is_finite() && p >= 0.0,
                "probability must be in [0, 1], got {p}"
            );
        }
        atoms.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(atoms.len());
        for (v, p) in atoms {
            if p == 0.0 {
                continue;
            }
            match merged.last_mut() {
                Some(last) if last.0 == v => last.1 += p,
                _ => merged.push((v, p)),
            }
        }
        assert!(!merged.is_empty(), "all atoms had zero probability");
        let total: f64 = merged.iter().map(|&(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "probabilities sum to {total}, expected 1"
        );
        DiscreteDist { atoms: merged }
    }

    /// The `(value, probability)` atoms, sorted by value.
    #[inline]
    pub fn atoms(&self) -> &[(f64, f64)] {
        &self.atoms
    }

    /// Number of support atoms.
    #[inline]
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the support is empty (never true for a constructed
    /// distribution; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Whether this is a point mass.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.atoms.len() == 1
    }

    /// Expectation.
    pub fn mean(&self) -> f64 {
        self.atoms.iter().map(|&(v, p)| v * p).sum()
    }

    /// Variance.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.atoms
            .iter()
            .map(|&(v, p)| p * (v - m) * (v - m))
            .sum::<f64>()
            .max(0.0)
    }

    /// Smallest support value.
    pub fn min_value(&self) -> f64 {
        self.atoms.first().expect("non-empty").0
    }

    /// Largest support value.
    pub fn max_value(&self) -> f64 {
        self.atoms.last().expect("non-empty").0
    }

    /// Total probability mass (≈ 1; drifts only by accumulated rounding).
    pub fn total_prob(&self) -> f64 {
        self.atoms.iter().map(|&(_, p)| p).sum()
    }

    /// `q`-quantile: the smallest support value `v` with
    /// `P(X ≤ v) ≥ q`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let mut acc = 0.0;
        for &(v, p) in &self.atoms {
            acc += p;
            if acc >= q {
                return v;
            }
        }
        self.max_value()
    }

    /// `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.atoms
            .iter()
            .take_while(|&&(v, _)| v <= x)
            .map(|&(_, p)| p)
            .sum()
    }

    /// Build from `(value, probability)` pairs already sorted by value,
    /// skipping the `O(n log n)` sort of [`DiscreteDist::from_atoms`].
    /// Zero-probability atoms are still dropped and equal values are
    /// still merged, in place.
    ///
    /// Sortedness, finiteness, and the sum-to-one condition are checked
    /// only under `debug_assertions`; release builds trust the caller
    /// (this is the fast constructor for generators like `two_state`
    /// that emit sorted supports by construction).
    pub fn from_sorted_atoms(mut atoms: Vec<(f64, f64)>) -> DiscreteDist {
        debug_assert!(!atoms.is_empty(), "a distribution needs at least one atom");
        debug_assert!(
            atoms.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()),
            "atoms must be sorted by value"
        );
        debug_assert!(
            atoms
                .iter()
                .all(|&(v, p)| v.is_finite() && p.is_finite() && p >= 0.0),
            "atoms must have finite values and probabilities in [0, 1]"
        );
        let mut w = 0usize;
        for r in 0..atoms.len() {
            let (v, p) = atoms[r];
            if p == 0.0 {
                continue;
            }
            if w > 0 && atoms[w - 1].0 == v {
                atoms[w - 1].1 += p;
            } else {
                atoms[w] = (v, p);
                w += 1;
            }
        }
        atoms.truncate(w);
        debug_assert!(!atoms.is_empty(), "all atoms had zero probability");
        debug_assert!(
            (atoms.iter().map(|&(_, p)| p).sum::<f64>() - 1.0).abs() < 1e-6,
            "probabilities must sum to 1"
        );
        DiscreteDist { atoms }
    }

    /// Distribution of `X + Y` for independent `X` (self), `Y` (other).
    pub fn convolve(&self, other: &DiscreteDist) -> DiscreteDist {
        self.convolve_with(other, &mut DistScratch::new())
    }

    /// [`convolve`](DiscreteDist::convolve) over a caller-provided
    /// [`DistScratch`]: no intermediate allocations once the arena is
    /// warm.
    ///
    /// The result is the *row merge* of the sums: a k-way merge of the
    /// `n` rows of the operand cross product (row `i` emits
    /// `xᵢ + yⱼ` for `j = 0..m`), always taking the row head of least
    /// `(value, i)`, with equal values folded left to right. For
    /// sorted supports that is the stable sort of the row-major pairs.
    /// When both supports are sorted and free of `-0.0` and `other` is
    /// the shorter one, the merge runs over its `m` columns instead —
    /// two streams for a two-state task duration. Column `j` is sorted
    /// by the merge key `(value, i, j)` exactly like a row (`+` is
    /// monotone), so a k-way merge of the columns emits the same pairs
    /// in the same order and the fold performs the same additions, in
    /// `O(nm log m)`.
    pub fn convolve_with(&self, other: &DiscreteDist, scratch: &mut DistScratch) -> DiscreteDist {
        let by_columns =
            other.len() < self.len() && self.suits_fast_kernels() && other.suits_fast_kernels();
        self.merge_op(other, scratch, |vx, vy| vx + vy, by_columns)
    }

    /// Distribution of `max(X, Y)` for independent `X`, `Y`.
    pub fn max_independent(&self, other: &DiscreteDist) -> DiscreteDist {
        self.max_independent_with(other, &mut DistScratch::new())
    }

    /// [`max_independent`](DiscreteDist::max_independent) over a
    /// caller-provided [`DistScratch`]. When both supports are sorted
    /// and free of `-0.0` (the normal case) it needs no scratch and
    /// allocates only its result; other operands take the row merge
    /// described at [`convolve_with`](DiscreteDist::convolve_with),
    /// with `max` in place of `+`.
    ///
    /// For sorted supports the row merge is the stable sort of the
    /// row-major pairs `(max(xᵢ, yⱼ), pᵢ·qⱼ)`, folded left to right.
    /// Every pair value is an operand atom, so the output support is
    /// the sorted union of the two supports and has at most `n + m`
    /// atoms. This kernel walks that union once. For each union value
    /// `v` the sorted stream holds, in row order, first every row with
    /// `xᵢ < v` paired with the `yⱼ = v` column, then every row with
    /// `xᵢ = v` paired with its `yⱼ ≤ v` prefix in `j` order. Without
    /// `-0.0`, distinct union values never compare equal, so each one
    /// is a separate output atom, and summing its products in that
    /// order from `0.0` performs the original additions (adding a zero
    /// product is exact, just like skipping it). The result is
    /// bit-identical in `O(n + m + pairs)` without any heap or `n·m`
    /// buffer.
    pub fn max_independent_with(
        &self,
        other: &DiscreteDist,
        scratch: &mut DistScratch,
    ) -> DiscreteDist {
        if !(self.suits_fast_kernels() && other.suits_fast_kernels()) {
            return self.merge_op(other, scratch, f64::max, false);
        }
        let xs = &self.atoms;
        let ys = &other.atoms;
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(xs.len() + ys.len());
        // `xs[..a]` and `ys[..b]` lie strictly below the next union value.
        let (mut a, mut b) = (0usize, 0usize);
        while a < xs.len() || b < ys.len() {
            let v = match (xs.get(a), ys.get(b)) {
                (Some(&(x, _)), Some(&(y, _))) if y.total_cmp(&x).is_lt() => y,
                (Some(&(x, _)), _) => x,
                (None, Some(&(y, _))) => y,
                (None, None) => unreachable!(),
            };
            let at_v = |atoms: &[(f64, f64)]| {
                atoms
                    .iter()
                    .take_while(|&&(w, _)| w.total_cmp(&v).is_eq())
                    .count()
            };
            let a2 = a + at_v(&xs[a..]);
            let b2 = b + at_v(&ys[b..]);
            let mut acc = 0.0;
            for &(_, px) in &xs[..a] {
                for &(_, py) in &ys[b..b2] {
                    acc += px * py;
                }
            }
            for &(_, px) in &xs[a..a2] {
                for &(_, py) in &ys[..b2] {
                    acc += px * py;
                }
            }
            if acc != 0.0 {
                out.push((v, acc));
            }
            a = a2;
            b = b2;
        }
        debug_assert!(!out.is_empty());
        DiscreteDist { atoms: out }
    }

    /// Whether the fast kernels may take this support: its values are
    /// non-decreasing (`total_cmp`) and none is `-0.0`.
    ///
    /// Constructed supports are sorted, but support coarsening can
    /// leave an atom one ulp past its neighbour when a weighted mean
    /// rounds, and the results of operations on such a support inherit
    /// the inversion. A `-0.0` atom next to a `0.0` one in the other
    /// operand breaks the union walk's premise that `max(xᵢ, yⱼ)` is
    /// the later operand in `total_cmp` order, since `f64::max` may
    /// return either zero. Such operands take the row merge.
    fn suits_fast_kernels(&self) -> bool {
        let atoms = &self.atoms;
        let sorted = atoms.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le());
        let negative_zero = atoms.iter().any(|&(v, _)| v == 0.0 && v.is_sign_negative());
        sorted && !negative_zero
    }

    /// The reference kernel of both binary operations: a k-way merge of
    /// the `n` rows of the operand cross product, row `i` emitting
    /// `(op(xᵢ, yⱼ), pᵢ·qⱼ)` for `j = 0..m` in order, always taking the
    /// row head of least `(value, row)`, and folding the emitted stream
    /// left to right: zero products are skipped and equal values are
    /// summed into one atom. A single row or column is emitted in
    /// row-major order directly.
    ///
    /// With sorted operands every row is sorted, so this emits the
    /// stable sort by value of the row-major pair stream — the
    /// original push-sort-fold kernel. With `by_columns` (only valid
    /// for operands that suit the fast kernels) the `m` columns are
    /// merged instead, under the same key `(value, i, j)`.
    fn merge_op(
        &self,
        other: &DiscreteDist,
        scratch: &mut DistScratch,
        op: impl Fn(f64, f64) -> f64,
        by_columns: bool,
    ) -> DiscreteDist {
        let xs = &self.atoms;
        let ys = &other.atoms;
        let (n, m) = (xs.len(), ys.len());
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(n * m);
        let push = |v: f64, p: f64, out: &mut Vec<(f64, f64)>| {
            if p == 0.0 {
                return;
            }
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 += p,
                _ => out.push((v, p)),
            }
        };
        if n == 1 || m == 1 {
            for &(vx, px) in xs {
                for &(vy, py) in ys {
                    push(op(vx, vy), px * py, &mut out);
                }
            }
        } else {
            let heap = &mut scratch.cursors;
            heap.clear();
            let cursor = |i: usize, j: usize| PairCursor {
                v: op(xs[i].0, ys[j].0),
                i: i as u32,
                j: j as u32,
            };
            if by_columns {
                heap.extend((0..m).map(|j| cursor(0, j)));
            } else {
                heap.extend((0..n).map(|i| cursor(i, 0)));
            }
            for k in (0..heap.len() / 2).rev() {
                sift_down(heap, k, PairCursor::before);
            }
            // Rows advance `j`, columns advance `i`.
            let (di, dj) = if by_columns { (1, 0) } else { (0, 1) };
            while let Some(top) = heap.first_mut() {
                let (i, j) = (top.i as usize, top.j as usize);
                push(top.v, xs[i].1 * ys[j].1, &mut out);
                let (i, j) = (i + di, j + dj);
                if i < n && j < m {
                    *top = cursor(i, j);
                } else {
                    heap.swap_remove(0);
                }
                sift_down(heap, 0, PairCursor::before);
            }
        }
        debug_assert!(!out.is_empty());
        DiscreteDist { atoms: out }
    }

    /// Coarsen the support to at most `max_atoms` atoms by repeatedly
    /// merging the adjacent pair whose merge introduces the least
    /// variance distortion (`p₁p₂/(p₁+p₂)·(v₂−v₁)²`), replacing the
    /// pair by its probability-weighted mean. The overall mean is
    /// preserved exactly (up to rounding); the support shrinks inward.
    pub fn reduce_support(&self, max_atoms: usize) -> DiscreteDist {
        let mut d = self.clone();
        d.reduce_support_in_place(max_atoms);
        d
    }

    /// In-place [`reduce_support`](DiscreteDist::reduce_support): a
    /// plain length check when the support is already within budget
    /// (the common case in capped series-parallel evaluation).
    pub fn reduce_support_in_place(&mut self, max_atoms: usize) {
        self.reduce_support_in_place_with(max_atoms, &mut DistScratch::new());
    }

    /// [`reduce_support_in_place`](DiscreteDist::reduce_support_in_place)
    /// over a caller-provided [`DistScratch`]: allocation-free once the
    /// arena is warm.
    ///
    /// The reference semantics is the original quadratic loop: scan
    /// every adjacent pair, merge the first one (lowest position) of
    /// least cost — or position 0 when no cost is finite — and repeat.
    /// This kernel keeps the surviving atoms in a linked list and the
    /// pair costs in a lazy-deletion min-heap keyed by `(cost, atom
    /// index)`. A merge keeps the left atom's index and drops the
    /// right one, so index order is position order and the heap's
    /// tie-break replays the scan's choice; non-finite costs are keyed
    /// as `+∞`, so when nothing is finite the lowest surviving index
    /// (position 0) wins as before. Every cost and merged atom is
    /// computed by the original expressions from the same operands,
    /// so the result is bit-identical in `O(n log n)`.
    pub fn reduce_support_in_place_with(&mut self, max_atoms: usize, scratch: &mut DistScratch) {
        assert!(max_atoms >= 1, "need at least one atom");
        let atoms = &mut self.atoms;
        let n = atoms.len();
        if n <= max_atoms {
            return;
        }
        let DistScratch {
            pairs: heap,
            prev,
            next,
            stamp,
            ..
        } = scratch;
        prev.clear();
        prev.extend((0..n as u32).map(|i| i.wrapping_sub(1))); // 0 wraps to NONE
        next.clear();
        next.extend((1..=n as u32).map(|i| if i < n as u32 { i } else { NONE }));
        stamp.clear();
        stamp.resize(n, 0);
        heap.clear();
        heap.extend((0..n - 1).map(|i| PairCost {
            cost: merge_cost(atoms[i], atoms[i + 1]),
            i: i as u32,
            stamp: 0,
        }));
        for k in (0..heap.len() / 2).rev() {
            sift_down(heap, k, PairCost::before);
        }
        let mut len = n;
        while len > max_atoms {
            let top = heap.swap_remove(0);
            sift_down(heap, 0, PairCost::before);
            let i = top.i as usize;
            if top.stamp != stamp[i] {
                continue;
            }
            let j = next[i] as usize;
            let (v1, p1) = atoms[i];
            let (v2, p2) = atoms[j];
            let p = p1 + p2;
            atoms[i] = ((p1 * v1 + p2 * v2) / p, p);
            stamp[j] += 1;
            next[i] = next[j];
            if next[j] != NONE {
                prev[next[j] as usize] = i as u32;
            }
            len -= 1;
            // The pairs starting at `i` and at its predecessor changed.
            for k in [prev[i], i as u32] {
                if k == NONE || next[k as usize] == NONE {
                    continue;
                }
                let k = k as usize;
                stamp[k] += 1;
                heap.push(PairCost {
                    cost: merge_cost(atoms[k], atoms[next[k] as usize]),
                    i: k as u32,
                    stamp: stamp[k],
                });
                let last = heap.len() - 1;
                sift_up(heap, last, PairCost::before);
            }
        }
        // Atom 0 always survives; the list runs in index order.
        let (mut w, mut r) = (0, 0);
        while r != NONE {
            atoms[w] = atoms[r as usize];
            w += 1;
            r = next[r as usize];
        }
        atoms.truncate(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two(a: f64, p: f64) -> DiscreteDist {
        DiscreteDist::from_atoms(vec![(a, p), (2.0 * a, 1.0 - p)])
    }

    #[test]
    fn point_mass_basics() {
        let d = DiscreteDist::point(3.0);
        assert!(d.is_point());
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.min_value(), 3.0);
        assert_eq!(d.max_value(), 3.0);
        assert_eq!(d.quantile(0.5), 3.0);
    }

    #[test]
    fn from_atoms_sorts_and_merges() {
        let d = DiscreteDist::from_atoms(vec![(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.atoms(), &[(1.0, 0.5), (2.0, 0.5)]);
    }

    #[test]
    fn convolution_of_two_state() {
        // {1: .9, 2: .1} + {1: .9, 2: .1} = {2: .81, 3: .18, 4: .01}.
        let d = two(1.0, 0.9).convolve(&two(1.0, 0.9));
        assert_eq!(d.len(), 3);
        assert!((d.cdf(2.0) - 0.81).abs() < 1e-15);
        assert!((d.mean() - 2.2).abs() < 1e-15);
    }

    #[test]
    fn max_of_iid_two_state() {
        // max{1 w.p. .9, 2 w.p. .1}²: P(1) = .81, P(2) = .19.
        let d = two(1.0, 0.9).max_independent(&two(1.0, 0.9));
        assert_eq!(d.len(), 2);
        assert!((d.mean() - (0.81 + 2.0 * 0.19)).abs() < 1e-15);
    }

    #[test]
    fn convolve_with_point_shifts() {
        let d = two(1.0, 0.5).convolve(&DiscreteDist::point(10.0));
        assert_eq!(d.atoms(), &[(11.0, 0.5), (12.0, 0.5)]);
    }

    #[test]
    fn max_with_dominant_point() {
        let d = two(1.0, 0.5).max_independent(&DiscreteDist::point(10.0));
        assert!(d.is_point());
        assert_eq!(d.mean(), 10.0);
    }

    #[test]
    fn reduce_support_preserves_mean() {
        // Binomial-ish support from repeated convolutions.
        let a = two(0.15, 0.999);
        let mut big = a.clone();
        for _ in 0..7 {
            big = big.convolve(&a);
        }
        let before = big.mean();
        for cap in [64, 16, 4, 2, 1] {
            let red = big.reduce_support(cap);
            assert!(red.len() <= cap);
            assert!(
                (red.mean() - before).abs() < 1e-12 * (1.0 + before.abs()),
                "cap {cap}: {} vs {before}",
                red.mean()
            );
        }
    }

    #[test]
    fn reduce_support_noop_when_small() {
        let d = two(1.0, 0.5);
        assert_eq!(d.reduce_support(10), d);
    }

    #[test]
    fn quantiles_walk_the_cdf() {
        let d = DiscreteDist::from_atoms(vec![(1.0, 0.2), (2.0, 0.5), (5.0, 0.3)]);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(0.2), 1.0);
        assert_eq!(d.quantile(0.21), 2.0);
        assert_eq!(d.quantile(0.7), 2.0);
        assert_eq!(d.quantile(0.71), 5.0);
        assert_eq!(d.quantile(1.0), 5.0);
    }

    #[test]
    fn variance_matches_closed_form() {
        let d = two(1.0, 0.9);
        assert!((d.variance() - 0.09).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_mass_rejected() {
        DiscreteDist::from_atoms(vec![(1.0, 0.5), (2.0, 0.2)]);
    }

    /// The row merge spelled out: repeatedly emit the row head of least
    /// `(value, row)`, then fold as the kernels do.
    fn naive_row_merge(
        xs: &[(f64, f64)],
        ys: &[(f64, f64)],
        op: impl Fn(f64, f64) -> f64,
    ) -> Vec<(u64, u64)> {
        let mut heads = vec![0usize; xs.len()];
        let mut out: Vec<(f64, f64)> = Vec::new();
        loop {
            let next = (0..xs.len())
                .filter(|&i| heads[i] < ys.len())
                .min_by(|&a, &b| {
                    let va = op(xs[a].0, ys[heads[a]].0);
                    let vb = op(xs[b].0, ys[heads[b]].0);
                    va.total_cmp(&vb).then(a.cmp(&b))
                });
            let Some(i) = next else { break };
            let j = heads[i];
            heads[i] += 1;
            let (v, p) = (op(xs[i].0, ys[j].0), xs[i].1 * ys[j].1);
            if p == 0.0 {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 += p,
                _ => out.push((v, p)),
            }
        }
        out.iter()
            .map(|&(v, p)| (v.to_bits(), p.to_bits()))
            .collect()
    }

    fn bits(d: &DiscreteDist) -> Vec<(u64, u64)> {
        d.atoms()
            .iter()
            .map(|&(v, p)| (v.to_bits(), p.to_bits()))
            .collect()
    }

    #[test]
    fn unsorted_or_signed_zero_operands_follow_the_row_merge() {
        // Coarsening can round a merged atom one ulp past its right
        // neighbour; such supports must still combine exactly like the
        // row merge, which the sorted-only fast paths would not.
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let inverted = DiscreteDist {
            atoms: vec![(1.0, 0.25), (up(2.0), 0.25), (2.0, 0.25), (3.0, 0.25)],
        };
        let sorted = DiscreteDist::from_atoms(vec![(0.5, 0.3), (2.0, 0.3), (2.5, 0.4)]);
        let two = DiscreteDist::from_atoms(vec![(1.0, 0.9), (up(1.0), 0.1)]);
        // `max(-0.0, 0.0)` may return either zero, so a signed zero
        // must take the row merge as well.
        let neg_zero = DiscreteDist {
            atoms: vec![(-0.0, 0.5), (1.0, 0.5)],
        };
        let zero = DiscreteDist::from_atoms(vec![(0.0, 0.5), (2.0, 0.5)]);
        let mut scratch = DistScratch::new();
        for (x, y) in [
            (&inverted, &sorted),
            (&sorted, &inverted),
            (&inverted, &two),
            (&two, &inverted),
            (&neg_zero, &zero),
            (&zero, &neg_zero),
        ] {
            let (xs, ys) = (x.atoms(), y.atoms());
            assert_eq!(
                bits(&x.max_independent_with(y, &mut scratch)),
                naive_row_merge(xs, ys, f64::max)
            );
            assert_eq!(
                bits(&x.convolve_with(y, &mut scratch)),
                naive_row_merge(xs, ys, |a, b| a + b)
            );
        }
    }
}
