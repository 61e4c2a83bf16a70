//! Bit-identity of the distribution kernels against the historical
//! straightforward implementations.
//!
//! `convolve`/`max_independent` were rewritten from "materialize all
//! n·m pairs, stable-sort, fold" into a sorted stream merge (convolve)
//! and a single walk of the union of the supports (max);
//! `reduce_support` from a quadratic rescan with `Vec::remove` into a
//! lazy-deletion heap over a linked list. The contract is *bit*-identity
//! — the same `f64` operations in the same order — so the reference
//! implementations below reproduce the legacy kernels verbatim and every
//! comparison is on raw bits, not within a tolerance. (Supports that
//! coarsening left one ulp out of order cannot be built through the
//! public API; the unit tests in `src/dist.rs` cover those.)

use proptest::prelude::*;
use stochdag_dist::{DiscreteDist, DistScratch};

/// The pre-rewrite kernel: row-major pair stream, stable sort by value
/// (`total_cmp`), then fold equal values left to right, skipping zero
/// probabilities.
fn legacy_op(
    xs: &DiscreteDist,
    ys: &DiscreteDist,
    op: impl Fn(f64, f64) -> f64,
) -> Vec<(f64, f64)> {
    let mut atoms = Vec::with_capacity(xs.len() * ys.len());
    for &(vx, px) in xs.atoms() {
        for &(vy, py) in ys.atoms() {
            atoms.push((op(vx, vy), px * py));
        }
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
    merged
}

/// The pre-rewrite coarsening: rescan every adjacent pair, merge the
/// first one of least cost (pair 0 when no cost is finite), remove the
/// right atom, repeat.
fn legacy_reduce(d: &DiscreteDist, max_atoms: usize) -> Vec<(f64, f64)> {
    let mut atoms = d.atoms().to_vec();
    while atoms.len() > max_atoms {
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for i in 0..atoms.len() - 1 {
            let (v1, p1) = atoms[i];
            let (v2, p2) = atoms[i + 1];
            let cost = p1 * p2 / (p1 + p2) * (v2 - v1) * (v2 - v1);
            if cost < best_cost {
                best_cost = cost;
                best = i;
            }
        }
        let (v1, p1) = atoms[best];
        let (v2, p2) = atoms[best + 1];
        let p = p1 + p2;
        atoms[best] = ((p1 * v1 + p2 * v2) / p, p);
        atoms.remove(best + 1);
    }
    atoms
}

fn assert_bits_eq(got: &DiscreteDist, want: &[(f64, f64)]) {
    assert_eq!(got.len(), want.len(), "atom counts differ");
    for (i, (&(gv, gp), &(wv, wp))) in got.atoms().iter().zip(want).enumerate() {
        assert_eq!(gv.to_bits(), wv.to_bits(), "value bits differ at atom {i}");
        assert_eq!(
            gp.to_bits(),
            wp.to_bits(),
            "probability bits differ at atom {i}"
        );
    }
}

/// A random distribution whose support values are drawn from a coarse
/// grid (multiples of 0.25), so cross products collide on equal values
/// often — the interesting path for the fold step.
fn arb_dist() -> impl Strategy<Value = DiscreteDist> {
    proptest::collection::vec((0u32..64, 1u32..100), 1..12).prop_map(|pairs| {
        let total: f64 = pairs.iter().map(|&(_, w)| w as f64).sum();
        let atoms: Vec<(f64, f64)> = pairs
            .iter()
            .map(|&(v, w)| (v as f64 * 0.25, w as f64 / total))
            .collect();
        DiscreteDist::from_atoms(atoms)
    })
}

proptest! {
    #[test]
    fn convolve_matches_legacy_bit_for_bit(x in arb_dist(), y in arb_dist()) {
        let mut scratch = DistScratch::new();
        let got = x.convolve_with(&y, &mut scratch);
        assert_bits_eq(&got, &legacy_op(&x, &y, |a, b| a + b));
        // The allocating entry point is the same kernel.
        assert_bits_eq(&x.convolve(&y), got.atoms());
    }

    #[test]
    fn max_independent_matches_legacy_bit_for_bit(x in arb_dist(), y in arb_dist()) {
        let mut scratch = DistScratch::new();
        let got = x.max_independent_with(&y, &mut scratch);
        assert_bits_eq(&got, &legacy_op(&x, &y, |a, b| a.max(b)));
        assert_bits_eq(&x.max_independent(&y), got.atoms());
    }

    #[test]
    fn scratch_reuse_is_stateless(x in arb_dist(), y in arb_dist(), z in arb_dist()) {
        // One arena across different operands and operations must give
        // the same bits as fresh arenas.
        let mut shared = DistScratch::new();
        let a = x.convolve_with(&y, &mut shared);
        let b = a.max_independent_with(&z, &mut shared);
        let c = b.convolve_with(&x, &mut shared);
        assert_bits_eq(&a, x.convolve(&y).atoms());
        assert_bits_eq(&b, a.max_independent(&z).atoms());
        assert_bits_eq(&c, b.convolve(&x).atoms());
    }

    #[test]
    fn from_sorted_atoms_matches_from_atoms(d in arb_dist()) {
        // A constructed support is sorted, so the sort-free constructor
        // must reproduce `from_atoms` exactly, merges and all.
        let fast = DiscreteDist::from_sorted_atoms(d.atoms().to_vec());
        assert_bits_eq(&fast, d.atoms());
    }

    #[test]
    fn reduce_support_matches_legacy_bit_for_bit(d in arb_dist(), cap in 1usize..8) {
        let mut scratch = DistScratch::new();
        let mut got = d.clone();
        got.reduce_support_in_place_with(cap, &mut scratch);
        assert_bits_eq(&got, &legacy_reduce(&d, cap));
    }

    #[test]
    fn reduce_support_in_place_matches_allocating(d in arb_dist(), cap in 1usize..8) {
        let reference = d.reduce_support(cap);
        let mut inplace = d.clone();
        inplace.reduce_support_in_place(cap);
        assert_bits_eq(&inplace, reference.atoms());
    }
}

/// A distribution of `n` atoms on a coarse grid of `step`-spaced values
/// with integer weights from a small range, so probabilities tie and
/// cross-product values collide often. Deterministic in `seed`.
fn grid_dist(n: usize, step: f64, seed: u64) -> DiscreteDist {
    let mut state = seed;
    let mut next = move |k: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % k
    };
    let mut v = next(4) as f64;
    let mut atoms = Vec::with_capacity(n);
    for _ in 0..n {
        atoms.push((v * step, 1 + next(3)));
        v += 1.0 + next(2) as f64;
    }
    let total: u64 = atoms.iter().map(|&(_, w)| w).sum();
    DiscreteDist::from_sorted_atoms(
        atoms
            .into_iter()
            .map(|(v, w)| (v, w as f64 / total as f64))
            .collect(),
    )
}

#[test]
fn dodin_shaped_max_matches_legacy() {
    let mut scratch = DistScratch::new();
    for seed in 0..4 {
        let x = grid_dist(128, 0.5, seed);
        let y = grid_dist(128, 0.5, seed + 100);
        let got = x.max_independent_with(&y, &mut scratch);
        assert!(got.len() <= 256);
        assert_bits_eq(&got, &legacy_op(&x, &y, |a, b| a.max(b)));
    }
}

#[test]
fn dodin_shaped_convolve_matches_legacy_in_both_orientations() {
    let mut scratch = DistScratch::new();
    for seed in 0..4 {
        let wide = grid_dist(128, 0.25, seed);
        // A two-state task duration on the same grid.
        let two = grid_dist(2, 0.25, seed + 7);
        let want = legacy_op(&wide, &two, |a, b| a + b);
        assert_bits_eq(&wide.convolve_with(&two, &mut scratch), &want);
        let want = legacy_op(&two, &wide, |a, b| a + b);
        assert_bits_eq(&two.convolve_with(&wide, &mut scratch), &want);
    }
}

#[test]
fn dodin_shaped_reduce_matches_legacy() {
    let mut scratch = DistScratch::new();
    for seed in 0..4 {
        // Equal weights on an evenly spaced grid: many exactly tied
        // costs, so the tie-break decides every merge.
        let d = grid_dist(256, 0.5, seed);
        for cap in [128, 7, 2, 1] {
            let mut got = d.clone();
            got.reduce_support_in_place_with(cap, &mut scratch);
            assert_bits_eq(&got, &legacy_reduce(&d, cap));
        }
    }
}

#[test]
fn reduce_with_no_finite_cost_merges_pair_zero_like_legacy() {
    // Gaps so large that `(v2 - v1)²` (or `v2 - v1` itself) overflows,
    // next to masses so small that `p1·p2` underflows: every pair cost
    // is `∞` or `0·∞ = NaN`, and the legacy scan falls back to pair 0.
    let tiny = 1e-170;
    let small = 1e-100;
    let d = DiscreteDist::from_sorted_atoms(vec![
        (-1.7e308, small),
        (-1e308, tiny),
        (1e308, tiny),
        (1.5e308, 1.0 - 2.0 * small - 2.0 * tiny),
        (1.7e308, small),
    ]);
    let costs: Vec<f64> = d
        .atoms()
        .windows(2)
        .map(|w| {
            let ((v1, p1), (v2, p2)) = (w[0], w[1]);
            p1 * p2 / (p1 + p2) * (v2 - v1) * (v2 - v1)
        })
        .collect();
    assert!(costs.iter().all(|c| !c.is_finite()), "{costs:?}");
    assert!(costs.iter().any(|c| c.is_nan()), "{costs:?}");
    for cap in [4, 3, 2, 1] {
        let mut got = d.clone();
        got.reduce_support_in_place_with(cap, &mut DistScratch::new());
        assert_bits_eq(&got, &legacy_reduce(&d, cap));
    }
}
