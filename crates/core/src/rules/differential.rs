//! Differential tests: the resumable decomposition and the set-based merge
//! against the code they replaced, kept here verbatim as oracles. The
//! oracle decomposition walks every tree from the root for every region;
//! the oracle merge rebuilds a `HashMap<Vec<u32>, Vec<Hypercube>>` per
//! axis step and leaves its groups in key order.

use super::*;
use crate::forest::IGuardConfig;
use crate::teacher::OracleTeacher;
use iguard_runtime::rng::{Rng, SliceRandom};
use std::cell::Cell;

thread_local! {
    /// Replaces the merge's 64-bit bucket hash with a 1-bit one on this
    /// thread, so buckets hold several groups and the exact-bits check
    /// has to split them.
    pub(super) static COLLIDING_HASH: Cell<bool> = const { Cell::new(false) };
}

/// Root-restart resolver of a distilled forest, verbatim from the
/// pre-resume `RuleSet::from_iguard`.
fn oracle_iguard_resolve(
    forest: &IGuardForest,
) -> impl Fn(&[f32], &[f32]) -> Resolution + Sync + '_ {
    let needed = forest.votes_needed();
    move |lo: &[f32], hi: &[f32]| -> Resolution {
        let mut mal = 0usize;
        let mut unresolved = 0usize;
        let mut first_straddle: Option<(usize, f32)> = None;
        for tree in forest.trees() {
            match tree.resolve_region(lo, hi) {
                Ok(leaf) => {
                    if tree.leaves[leaf].label.expect("undistilled leaf") {
                        mal += 1;
                    }
                }
                Err(straddle) => {
                    unresolved += 1;
                    first_straddle.get_or_insert(straddle);
                }
            }
        }
        if mal >= needed {
            return Ok(true); // malicious vote already locked in
        }
        if mal + unresolved < needed {
            return Ok(false); // benign even if all straddles go malicious
        }
        Err(first_straddle.expect("undetermined region must have a straddle"))
    }
}

/// The pre-resume decomposition loop, verbatim up to returning the benign
/// cubes before they are merged.
fn oracle_decompose(
    dim: usize,
    resolve: &(dyn Fn(&[f32], &[f32]) -> Resolution + Sync),
    max_regions: usize,
) -> Result<(Vec<Hypercube>, usize), RuleGenError> {
    let mut frontier =
        vec![Hypercube { lo: vec![f32::NEG_INFINITY; dim], hi: vec![f32::INFINITY; dim] }];
    let mut benign = Vec::new();
    let mut total_regions = 0usize;
    while !frontier.is_empty() {
        let resolved = par::par_map_vec(frontier, |cube| {
            let r = resolve(&cube.lo, &cube.hi);
            (cube, r)
        });
        let mut next = Vec::new();
        for (cube, resolution) in resolved {
            match resolution {
                Ok(label) => {
                    total_regions += 1;
                    if total_regions > max_regions {
                        return Err(RuleGenError::TooManyRegions {
                            budget: max_regions,
                            reached: total_regions,
                        });
                    }
                    if !label {
                        benign.push(cube);
                    }
                }
                Err((feature, split)) => {
                    debug_assert!(
                        cube.lo[feature] < split && split < cube.hi[feature],
                        "straddle split must be interior"
                    );
                    let mut left = cube.clone();
                    left.hi[feature] = split;
                    let mut right = cube;
                    right.lo[feature] = split;
                    next.push(left);
                    next.push(right);
                    if next.len() > max_regions * 2 {
                        return Err(RuleGenError::TooManyRegions {
                            budget: max_regions,
                            reached: total_regions + next.len(),
                        });
                    }
                }
            }
        }
        frontier = next;
    }
    Ok((benign, total_regions))
}

/// The pre-rewrite `merge_adjacent`, verbatim but for its pass counter.
fn oracle_merge(mut cubes: Vec<Hypercube>) -> Vec<Hypercube> {
    use std::collections::HashMap;
    if cubes.is_empty() {
        return cubes;
    }
    let dims = cubes[0].dims();
    loop {
        let mut merged_any = false;
        for d in 0..dims {
            // Key = bit patterns of (lo, hi) on all axes except d.
            let mut groups: HashMap<Vec<u32>, Vec<Hypercube>> = HashMap::new();
            for cube in cubes.drain(..) {
                let mut key = Vec::with_capacity(2 * (dims - 1));
                for a in 0..dims {
                    if a == d {
                        continue;
                    }
                    key.push(cube.lo[a].to_bits());
                    key.push(cube.hi[a].to_bits());
                }
                groups.entry(key).or_default().push(cube);
            }
            // Deterministic output order: sort groups by key.
            let mut keyed: Vec<(Vec<u32>, Vec<Hypercube>)> = groups.into_iter().collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            for (_, mut group) in keyed {
                group.sort_by(|a, b| a.lo[d].total_cmp(&b.lo[d]));
                let mut run: Option<Hypercube> = None;
                for cube in group {
                    match run.take() {
                        None => run = Some(cube),
                        Some(mut prev) => {
                            if prev.hi[d] == cube.lo[d] {
                                prev.hi[d] = cube.hi[d];
                                merged_any = true;
                                run = Some(prev);
                            } else {
                                cubes.push(prev);
                                run = Some(cube);
                            }
                        }
                    }
                }
                if let Some(prev) = run {
                    cubes.push(prev);
                }
            }
        }
        if !merged_any {
            return cubes;
        }
    }
}

fn bits(cubes: &[Hypercube]) -> Vec<(Vec<u32>, Vec<u32>)> {
    cubes
        .iter()
        .map(|c| {
            (c.lo.iter().map(|v| v.to_bits()).collect(), c.hi.iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

/// The new merge and the oracle agree bit for bit, from the given input
/// order and from a shuffled one.
fn assert_merges_agree(cells: Vec<Hypercube>, rng: &mut Rng) {
    let expect = bits(&oracle_merge(cells.clone()));
    assert_eq!(bits(&merge_adjacent(cells.clone())), expect, "input {cells:?}");
    let mut shuffled = cells;
    shuffled.shuffle(rng);
    assert_eq!(bits(&merge_adjacent(shuffled.clone())), expect, "shuffled input {shuffled:?}");
}

/// Random subset of the cells of a grid whose per-axis cuts are drawn
/// from `pool` (distinct bit patterns, in `total_cmp` order): the shape
/// of the `random_grid_cells` inputs in `tests/properties.rs`, with the
/// cut values under the caller's control.
fn grid_cells(rng: &mut Rng, dim: usize, pool: &dyn Fn(&mut Rng) -> f32) -> Vec<Hypercube> {
    let axes: Vec<Vec<f32>> = (0..dim)
        .map(|_| {
            let n = rng.gen_range(3usize..7);
            let mut cuts: Vec<f32> = (0..n).map(|_| pool(rng)).collect();
            cuts.sort_by(|a, b| a.total_cmp(b));
            cuts.dedup_by(|a, b| a.to_bits() == b.to_bits());
            cuts
        })
        .collect();
    if axes.iter().any(|cuts| cuts.len() < 2) {
        return Vec::new();
    }
    let mut cells = Vec::new();
    let mut idx = vec![0usize; dim];
    loop {
        if rng.gen_bool(0.6) {
            let lo: Vec<f32> = (0..dim).map(|d| axes[d][idx[d]]).collect();
            let hi: Vec<f32> = (0..dim).map(|d| axes[d][idx[d] + 1]).collect();
            cells.push(Hypercube { lo, hi });
        }
        let mut d = 0;
        loop {
            if d == dim {
                return cells;
            }
            idx[d] += 1;
            if idx[d] + 1 < axes[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

#[test]
fn merge_matches_oracle_on_random_grid_cells() {
    let mut rng = Rng::seed_from_u64(0xD1FF);
    for _ in 0..300 {
        let dim = rng.gen_range(1usize..5);
        let cells = grid_cells(&mut rng, dim, &|r| r.gen_range(-5.0f32..5.0));
        assert_merges_agree(cells, &mut rng);
    }
}

/// NaN (either sign), ±0.0 and ±∞ cuts: ±0.0 group apart by bit pattern
/// but abut by `==`, and a NaN bound abuts nothing.
#[test]
fn merge_matches_oracle_with_special_bounds() {
    const SPECIAL: [f32; 7] =
        [f32::NEG_INFINITY, -0.0, 0.0, f32::INFINITY, f32::NAN, -f32::NAN, 1.0];
    let mut rng = Rng::seed_from_u64(0x5BEC);
    for _ in 0..400 {
        let dim = rng.gen_range(1usize..4);
        let cells = grid_cells(&mut rng, dim, &|r| {
            if r.gen_bool(0.6) {
                SPECIAL[r.gen_range(0..SPECIAL.len())]
            } else {
                r.gen_range(-2.0f32..2.0)
            }
        });
        assert_merges_agree(cells, &mut rng);
    }
    // Spelled out: [-1, -0.0) abuts [0.0, 1) on axis 0, but boxes whose
    // axis-1 bounds differ only in the sign of zero stay apart.
    let cube = |lo: [f32; 2], hi: [f32; 2]| Hypercube { lo: lo.to_vec(), hi: hi.to_vec() };
    let cells = vec![
        cube([-1.0, 0.0], [-0.0, 1.0]),
        cube([0.0, 0.0], [1.0, 1.0]),
        cube([1.0, -0.0], [2.0, 1.0]),
    ];
    assert_eq!(merge_adjacent(cells.clone()).len(), 2);
    assert_merges_agree(cells, &mut rng);
}

#[test]
fn merge_matches_oracle_when_hashes_collide() {
    COLLIDING_HASH.set(true);
    let mut rng = Rng::seed_from_u64(0xC011);
    for _ in 0..200 {
        let dim = rng.gen_range(1usize..5);
        let cells = grid_cells(&mut rng, dim, &|r| r.gen_range(-5.0f32..5.0));
        assert_merges_agree(cells, &mut rng);
    }
    COLLIDING_HASH.set(false);
}

#[test]
fn merge_matches_oracle_on_empty_single_and_merged_inputs() {
    let mut rng = Rng::seed_from_u64(0xE0);
    assert_merges_agree(Vec::new(), &mut rng);
    let zero_dim = Hypercube { lo: Vec::new(), hi: Vec::new() };
    assert_merges_agree(vec![zero_dim.clone(), zero_dim], &mut rng);
    let one = Hypercube { lo: vec![0.0, -1.0, f32::NEG_INFINITY], hi: vec![1.0, 0.0, 2.0] };
    assert_merges_agree(vec![one], &mut rng);
    for _ in 0..50 {
        let dim = rng.gen_range(1usize..5);
        let cells = grid_cells(&mut rng, dim, &|r| r.gen_range(-5.0f32..5.0));
        assert_merges_agree(oracle_merge(cells), &mut rng);
    }
}

/// A distilled forest on 3 features whose teacher cuts two of them.
fn forest(seed: u64) -> IGuardForest {
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = Dataset::new(3);
    for _ in 0..384 {
        data.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
    }
    let cut = rng.gen_range(0.3f32..0.7);
    let teacher = OracleTeacher(move |x: &[f32]| x[0] > cut || x[1] * x[2] > 0.5);
    let n_trees = rng.gen_range(3usize..12);
    let cfg = IGuardConfig { n_trees, subsample: 128, k_augment: 32, ..Default::default() };
    let mut forest = IGuardForest::fit(&data, &teacher, &cfg, &mut rng);
    forest.distill(&data, &teacher, 16, &mut rng);
    forest
}

#[test]
fn resumed_decomposition_matches_root_restart_at_any_budget() {
    for seed in 0..6 {
        let forest = forest(seed);
        let dim = forest.bounds().len();
        let width = forest.trees().len();
        let (_, total) =
            oracle_decompose(dim, &oracle_iguard_resolve(&forest), usize::MAX / 4).unwrap();
        for budget in [0, 1, 2, 3, 7, 40, total / 3, total - 1, total, total + 1, 1 << 20] {
            let expect = oracle_decompose(dim, &oracle_iguard_resolve(&forest), budget);
            let got = decompose(dim, width, &iguard_resolver(&forest), budget);
            match (got, expect) {
                (Ok((boxes, regions)), Ok((cubes, oracle_regions))) => {
                    assert_eq!(regions, oracle_regions, "seed {seed} budget {budget}");
                    let got: Vec<Hypercube> = (0..boxes.len)
                        .map(|i| Hypercube { lo: boxes.lo(i).to_vec(), hi: boxes.hi(i).to_vec() })
                        .collect();
                    assert_eq!(bits(&got), bits(&cubes), "seed {seed} budget {budget}");
                }
                (got, expect) => {
                    assert_eq!(got.err(), expect.err(), "seed {seed} budget {budget}");
                }
            }
        }
    }
}

/// End to end, both compilers equal the oracle decomposition followed by
/// the oracle merge.
#[test]
fn compiled_rulesets_match_oracle_pipeline() {
    for seed in 10..14 {
        let forest = forest(seed);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        let (cubes, total) =
            oracle_decompose(forest.bounds().len(), &oracle_iguard_resolve(&forest), 100_000)
                .unwrap();
        assert_eq!(rules.total_regions, total);
        assert_eq!(bits(&rules.whitelist), bits(&oracle_merge(cubes)), "seed {seed}");
    }
    let mut rng = Rng::seed_from_u64(15);
    let mut data = Dataset::new(2);
    for _ in 0..256 {
        data.push_row(&[0.5 + rng.gen_range(-0.2..0.2), rng.gen_range(0.0..1.0)]);
    }
    let cfg =
        iguard_iforest::IsolationForestConfig { n_trees: 8, subsample: 64, contamination: 0.05 };
    let iforest = IsolationForest::fit(&data, &cfg, &mut rng);
    let bounds = [(0.0f32, 1.0), (0.0, 1.0)];
    let rules = RuleSet::from_iforest(&iforest, &bounds, 200_000).unwrap();
    // The iForest resolver keeps no cursors, so it is its own root-restart
    // oracle given an empty cursor slice.
    let resolve = iforest_resolver(&iforest);
    let (cubes, total) =
        oracle_decompose(2, &|lo: &[f32], hi: &[f32]| resolve(lo, hi, &mut []), 200_000).unwrap();
    assert_eq!(rules.total_regions, total);
    assert_eq!(bits(&rules.whitelist), bits(&oracle_merge(cubes)));
}
