//! Set-up: train the whitelists, compile them to TCAM tables and diff
//! them into install transactions — everything an operator runs before
//! the switch sees traffic. Each stage is timed under its layer name.

use std::collections::HashSet;
use std::time::Instant;

use iguard_core::early::EarlyModel;
use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::phase::{train_phases, PhaseTrainConfig};
use iguard_core::rules::RuleSet;
use iguard_core::teacher::OracleTeacher;
use iguard_flow::features::packet_level_features;
use iguard_flow::table::FlowTableConfig;
use iguard_iforest::IsolationForestConfig;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::pipeline::{Pipeline, PipelineConfig};
use iguard_switch::replay::{replay, ReplayConfig};
use iguard_switch::ruleset::RulesetTxn;
use iguard_switch::tcam::{compile_ruleset, FieldSpec, RangeTable};
use iguard_synth::attacks::Attack;
use iguard_synth::benign::benign_trace;
use iguard_synth::trace::{extract_flows, ExtractConfig, Trace};

/// Set-up stages, in the order they run; every run reports each (0 when
/// a workload skips the stage).
pub const STAGES: [&str; 9] = [
    "flow.extract.s",
    "core.fit.s",
    "core.distill.s",
    "core.rulegen_fl.s",
    "core.rulegen_pl.s",
    "core.phase_train.s",
    "switch.tcam_compile.s",
    "switch.ruleset_diff.s",
    "switch.new.s",
];

/// Largest rule-region count rule generation may expand to.
const MAX_REGIONS: usize = 600_000;

/// Accumulated seconds per [`STAGES`] entry.
#[derive(Clone, Debug, Default)]
pub struct StageTimes(pub [f64; STAGES.len()]);

impl StageTimes {
    pub fn time<R>(&mut self, stage: &str, f: impl FnOnce() -> R) -> R {
        let i = STAGES.iter().position(|s| *s == stage).expect("known stage");
        let t = Instant::now();
        let r = f();
        self.0[i] += t.elapsed().as_secs_f64();
        r
    }

    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Training inputs, generated before any clock starts.
pub struct TrainingData {
    /// Benign traffic the FL forest and the PL model learn from.
    pub benign: Trace,
    /// Seed of the training RNG stream (split, fit, augmentation).
    pub seed: u64,
    /// Mixed benign/storm traffic the phase whitelists learn from.
    pub phase_mix: Option<Trace>,
    /// Drifted traffic the warm refit retrains on.
    pub refit_window: Option<Trace>,
}

/// Packet-count boundaries of the phase ladder, under a final threshold
/// of 4 packets.
pub const PHASE_BOUNDARIES: [u64; 2] = [2, 3];

/// The compiled deployment a backend is built from.
pub struct Deployment {
    pub fl_rules: RuleSet,
    pub pl_rules: RuleSet,
    /// Version 1: the whitelist diffed against the empty table a freshly
    /// booted switch holds.
    pub bootstrap: RulesetTxn,
    /// One whitelist per [`PHASE_BOUNDARIES`] entry (empty = no ladder).
    pub phase_rules: Vec<RuleSet>,
    /// Version 2: the warm-refit whitelist diffed against version 1.
    pub refit: Option<RulesetTxn>,
}

/// The flood oracle every committed bench teaches with: flood tooling is
/// machine-regular (feature 10, IPD std) or oversized (feature 2, mean
/// size); benign jitter is neither.
fn flood_teacher() -> OracleTeacher<impl Fn(&[f32]) -> bool + Sync> {
    OracleTeacher(|x: &[f32]| x[10] < 0.0008 || x[2] > 1200.0)
}

/// 16-bit quantization scaled to each feature's bound.
fn specs_for(rules: &RuleSet) -> Vec<FieldSpec> {
    rules
        .bounds
        .iter()
        .map(|&(_, hi)| FieldSpec::new(16, (65_535.0 / hi.max(1e-6)).min(65_535.0)))
        .collect()
}

/// Runs set-up once; the caller builds the backend (timed as
/// `switch.new.s`).
pub fn deploy(data: &TrainingData, t: &mut StageTimes) -> Deployment {
    let mut rng = Rng::seed_from_u64(data.seed);
    let teacher = flood_teacher();
    let ig = IGuardConfig::default();

    let (train, pl_rows) = t.time("flow.extract.s", || {
        let train = extract_flows(&data.benign, &ExtractConfig::default());
        let mut seen = HashSet::new();
        let mut pl = Dataset::default();
        for p in &data.benign.packets {
            if seen.insert(p.five.canonical()) {
                pl.push_row(&packet_level_features(p));
            }
        }
        (train, pl)
    });
    let mut forest =
        t.time("core.fit.s", || IGuardForest::fit(&train.features, &teacher, &ig, &mut rng));
    t.time("core.distill.s", || forest.distill(&train.features, &teacher, ig.k_augment, &mut rng));
    let fl_rules = t.time("core.rulegen_fl.s", || {
        RuleSet::from_iguard(&forest, MAX_REGIONS).expect("FL whitelist within the region budget")
    });
    let pl_rules = t.time("core.rulegen_pl.s", || {
        let cfg = IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 };
        EarlyModel::train(&pl_rows, &cfg, MAX_REGIONS, &mut rng).expect("PL whitelist").rules
    });

    let phase_rules = match &data.phase_mix {
        None => Vec::new(),
        Some(mix) => train_phase_rules(mix, &mut rng, t),
    };

    let table =
        t.time("switch.tcam_compile.s", || compile_ruleset(&fl_rules, &specs_for(&fl_rules)));
    let bootstrap = t.time("switch.ruleset_diff.s", || {
        let empty = RangeTable::new(table.field_bits.clone());
        RulesetTxn::diff(1, &empty, &table, fl_rules.clone())
    });

    let refit = data.refit_window.as_ref().map(|window| {
        let retrain = t.time("flow.extract.s", || extract_flows(window, &ExtractConfig::default()));
        let mut next =
            t.time("core.fit.s", || forest.refit_warm(&retrain.features, &teacher, &ig, &mut rng));
        t.time("core.distill.s", || {
            next.distill(&retrain.features, &teacher, ig.k_augment, &mut rng)
        });
        let rules = t.time("core.rulegen_fl.s", || {
            RuleSet::from_iguard(&next, MAX_REGIONS).expect("refit whitelist within the budget")
        });
        let next_table =
            t.time("switch.tcam_compile.s", || compile_ruleset(&rules, &specs_for(&rules)));
        t.time("switch.ruleset_diff.s", || RulesetTxn::diff(2, &table, &next_table, rules))
    });

    Deployment { fl_rules, pl_rules, bootstrap, phase_rules, refit }
}

/// The phase ladder's whitelists: one guided forest per boundary on flow
/// features cut at that boundary, later phases warm-started from earlier
/// ones, under a prefix-shape oracle (fast, small packets are the storm
/// signature at two packets).
fn train_phase_rules(mix: &Trace, rng: &mut Rng, t: &mut StageTimes) -> Vec<RuleSet> {
    let datasets: Vec<Dataset> = t.time("flow.extract.s", || {
        PHASE_BOUNDARIES
            .iter()
            .map(|&b| {
                extract_flows(mix, &ExtractConfig { pkt_threshold: b, ..Default::default() })
                    .features
            })
            .collect()
    });
    let teacher = OracleTeacher(|x: &[f32]| x[7] < 0.008 && x[6] <= 130.0);
    let cfg = PhaseTrainConfig {
        forest: IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() },
        // Early convictions are costly to get wrong (a blacklisted benign
        // flow stays dropped), so demand 6 of 7 trees.
        certainty: 0.7,
        max_regions: MAX_REGIONS,
        warm_start: true,
    };
    t.time("core.phase_train.s", || {
        train_phases(&datasets, &teacher, &cfg, rng).expect("phase training data").rulesets
    })
}

/// Re-runs the golden exact deployment (seed 0xC0FFEE, the one
/// `tests/end_to_end.rs` pins) and returns its confusion matrix.
pub fn golden_confusion() -> (u64, u64, u64, u64) {
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let train_trace = benign_trace(200, 8.0, &mut rng);
    let train = extract_flows(&train_trace, &ExtractConfig::default());
    let teacher = flood_teacher();
    let ig = IGuardConfig { n_trees: 5, subsample: 64, k_augment: 32, ..Default::default() };
    let mut forest = IGuardForest::fit(&train.features, &teacher, &ig, &mut rng);
    forest.distill(&train.features, &teacher, ig.k_augment, &mut rng);
    let rules = RuleSet::from_iguard(&forest, 400_000).expect("golden FL budget");
    let mut seen = HashSet::new();
    let mut pl = Dataset::default();
    for p in &train_trace.packets {
        if seen.insert(p.five.canonical()) {
            pl.push_row(&packet_level_features(p));
        }
    }
    let early = EarlyModel::train(
        &pl,
        &IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 },
        400_000,
        &mut rng,
    )
    .expect("golden PL rules");
    let benign = benign_trace(100, 6.0, &mut rng);
    let flood = Attack::UdpDdos.trace(40, 6.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);
    let cfg = PipelineConfig::from(FlowTableConfig::default().with_pkt_threshold(4));
    let mut pipeline = Pipeline::new(cfg, rules, early.rules);
    let mut controller = Controller::new(ControllerConfig::default());
    let r = replay(&trace, &mut pipeline, &mut controller, &ReplayConfig::default());
    (r.tp, r.fp, r.tn, r.fn_)
}
