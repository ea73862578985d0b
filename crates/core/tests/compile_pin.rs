//! Pins the exact output of whitelist compilation: a deployed-size guided
//! forest (default `IGuardConfig`: 20 trees, Ψ = 256, 13 features) that
//! decomposes into well over 10k regions, so the adjacent-box merge runs
//! several passes, and a baseline iForest ruleset. Any change to region
//! decomposition or merging that alters a rule, its order or its bits
//! changes a fingerprint here.

use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::rules::RuleSet;
use iguard_core::teacher::OracleTeacher;
use iguard_iforest::{IsolationForest, IsolationForestConfig};
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

/// 64-bit FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Flow-feature-shaped rows: 13 features on mixed scales, a few of them
/// correlated the way size and timing statistics are.
fn flow_like(n: usize, rng: &mut Rng) -> Dataset {
    let mut d = Dataset::new(13);
    for _ in 0..n {
        let size = rng.gen_range(60.0f32..1500.0);
        let ipd = rng.gen_range(0.0f32..0.05);
        let pkts = rng.gen_range(1.0f32..64.0);
        let mut row = [0.0f32; 13];
        row[0] = pkts;
        row[1] = size * pkts;
        row[2] = size;
        row[3] = size * rng.gen_range(0.5f32..1.0);
        row[4] = size * rng.gen_range(1.0f32..1.5);
        row[5] = rng.gen_range(0.0f32..400.0);
        row[6] = rng.gen_range(40.0f32..200.0);
        row[7] = ipd * rng.gen_range(0.5f32..2.0);
        row[8] = ipd * pkts;
        row[9] = ipd;
        row[10] = ipd * rng.gen_range(0.0f32..0.5);
        row[11] = rng.gen_range(0.0f32..1.0);
        row[12] = rng.gen_range(0.0f32..8.0);
        d.push_row(&row);
    }
    d
}

#[test]
fn deployed_size_compile_output_is_pinned() {
    let mut rng = Rng::seed_from_u64(0x5EED_0014);
    let data = flow_like(2000, &mut rng);
    let teacher = OracleTeacher(|x: &[f32]| x[10] < 0.0008 || x[2] > 1200.0 || x[0] < 2.0);
    let cfg = IGuardConfig::default();
    let mut forest = IGuardForest::fit(&data, &teacher, &cfg, &mut rng);
    forest.distill(&data, &teacher, cfg.k_augment, &mut rng);
    let rules = RuleSet::from_iguard(&forest, 600_000).expect("FL budget");
    // 16,683 regions merge over 7 passes into 950 rules.
    let got = (rules.total_regions, rules.len(), fnv1a(&rules.to_tsv()));
    assert_eq!(got, (16_683, 950, 1_666_535_734_736_408_368));
}

#[test]
fn iforest_compile_output_is_pinned() {
    let mut rng = Rng::seed_from_u64(0x5EED_0015);
    let mut data = Dataset::new(3);
    for _ in 0..1024 {
        data.push_row(&[
            rng.gen_range(0.0f32..1.0),
            rng.gen_range(0.0f32..1.0) * rng.gen_range(0.0f32..1.0),
            rng.gen_range(0.4f32..0.6),
        ]);
    }
    let cfg = IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 };
    let forest = IsolationForest::fit(&data, &cfg, &mut rng);
    let bounds = vec![(0.0f32, 1.0); 3];
    let rules = RuleSet::from_iforest(&forest, &bounds, 400_000).expect("iForest budget");
    let got = (rules.total_regions, rules.len(), fnv1a(&rules.to_tsv()));
    assert_eq!(got, (3_090, 728, 890_086_001_213_142_616));
}
