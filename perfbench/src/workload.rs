//! The three workloads: their inputs and the backend each replays
//! through.

use std::collections::HashSet;
use std::time::Instant;

use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::table::{FlowShard, FlowTableConfig, PhaseSchedule};
use iguard_runtime::rng::Rng;
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{Pipeline, PipelineConfig, ScalarPipeline};
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
use iguard_switch::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
use iguard_synth::attacks::Attack;
use iguard_synth::benign::benign_trace;
use iguard_synth::scenarios::Scenario;
use iguard_synth::streaming::{StreamingConfig, StreamingTrace};
use iguard_synth::trace::Trace;

use crate::deploy::{Deployment, TrainingData, PHASE_BOUNDARIES};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StreamExact,
    StreamSketched,
    StormCanon,
}

/// Flows in the stream workloads' trace.
const STREAM_FLOWS: u64 = 200_000;

/// Exact-table slots the sketched stream may keep resident — below the
/// ~1.3k flows the stream holds live at once, so admission and eviction
/// run on most new flows.
const SKETCH_BUDGET_SLOTS: usize = 512;

/// Slots per hash table of the storm's starved flow table.
const STORM_SLOTS: usize = 512;

/// Storm segments. Each pass replays one segment on a fresh switch, and
/// successive passes rotate through them: small segments keep a pass's
/// working set (mitigation log, controller maps) small, and the
/// quality metrics still cover every epoch.
const STORM_SEGMENTS: u64 = 3;

/// Canon epochs per storm segment.
const STORM_EPOCHS: u64 = 4;

/// Gap between storm epochs: past the 2 s idle timeout, so each epoch
/// meets a table whose residents have expired.
const EPOCH_GAP_NS: u64 = 2_500_000_000;

/// Seed of the training traffic. The deployed model is one fixed model
/// and `--seed` varies the traffic it meets, so differences between seeds
/// come from the traffic, not from a different whitelist.
const TRAINING_SEED: u64 = 0x7EA1_0000;

/// Physical shard groups of the storm backend.
pub const STORM_SHARDS: usize = 2;

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::StreamExact, Workload::StreamSketched, Workload::StormCanon];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamExact => "stream_exact",
            Workload::StreamSketched => "stream_sketched",
            Workload::StormCanon => "storm_canon",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Packets per `process_batch` call, which is also the control-loop
    /// tick.
    pub fn batch(self) -> usize {
        match self {
            Workload::StreamExact | Workload::StreamSketched => 8192,
            Workload::StormCanon => 1024,
        }
    }

    pub fn pipeline_config(self) -> PipelineConfig {
        let table = FlowTableConfig::default().with_pkt_threshold(4);
        PipelineConfig::default().with_flow_table(match self {
            Workload::StreamExact | Workload::StreamSketched => table,
            Workload::StormCanon => table
                .with_slots_per_table(STORM_SLOTS)
                .with_phases(PhaseSchedule::new(&PHASE_BOUNDARIES)),
        })
    }

    /// Generates the replay trace from `seed` and the training data from
    /// [`TRAINING_SEED`].
    pub fn generate(self, seed: u64) -> Input {
        let t = Instant::now();
        let mut rng = Rng::seed_from_u64(TRAINING_SEED);
        let benign = benign_trace(300, 10.0, &mut rng);
        let fit_seed = rng.next_u64();
        let (traces, phase_mix, refit_window) = match self {
            Workload::StreamExact | Workload::StreamSketched => {
                let cfg = StreamingConfig::default().with_seed(seed).with_total_flows(STREAM_FLOWS);
                (vec![StreamingTrace::new(cfg).materialize()], None, None)
            }
            Workload::StormCanon => {
                let phase_mix = Trace::merge(vec![
                    benign_trace(150, 8.0, &mut rng),
                    Scenario::StateExhaustion.trace(600, 8.0, &mut rng),
                    Scenario::PulseWave.trace(300, 8.0, &mut rng),
                    Scenario::Slowloris.trace(80, 8.0, &mut rng),
                    Scenario::C2Beacon.trace(60, 8.0, &mut rng),
                ]);
                let refit_window = Trace::merge(vec![
                    benign_trace(60, 10.0, &mut rng),
                    Attack::UdpDdos.trace(90, 10.0, &mut rng),
                ]);
                let segments = (0..STORM_SEGMENTS).map(|s| storm_segment(seed, s)).collect();
                (segments, Some(phase_mix), Some(refit_window))
            }
        };
        let training = TrainingData { benign, seed: fit_seed, phase_mix, refit_window };
        let gen_s = t.elapsed().as_secs_f64();
        let segments = traces.into_iter().map(Segment::new).collect();
        Input { segments, training, gen_s }
    }
}

/// Segment `segment` of the storm: the adversarial canon — state
/// exhaustion, pulse wave, slowloris and a C2 beacon over benign
/// background — repeated as [`STORM_EPOCHS`] epochs, each drawn afresh
/// and shifted past the previous one.
fn storm_segment(seed: u64, segment: u64) -> Trace {
    let window = 8.0;
    let mut epochs = Vec::new();
    let mut offset = 0u64;
    for e in segment * STORM_EPOCHS..(segment + 1) * STORM_EPOCHS {
        let mut rng = Rng::seed_from_u64(seed ^ 0x0E11_0AD0 ^ (e << 40));
        let mut epoch = Trace::merge(vec![
            benign_trace(480, window, &mut rng),
            Scenario::StateExhaustion.trace(16_000, window, &mut rng),
            Scenario::PulseWave.trace(8_000, window, &mut rng),
            Scenario::Slowloris.trace(300, window, &mut rng),
            Scenario::C2Beacon.trace(200, window, &mut rng),
        ]);
        let end = epoch.packets.last().map_or(0, |p| p.ts_ns);
        epoch.shift_time(offset);
        epochs.push(epoch);
        offset += end + EPOCH_GAP_NS;
    }
    Trace::merge(epochs)
}

/// A workload's pre-generated input.
pub struct Input {
    /// The traces the passes replay, in rotation (one for the streams).
    pub segments: Vec<Segment>,
    pub training: TrainingData,
    /// Seconds the generator took.
    pub gen_s: f64,
}

impl Input {
    pub fn packets(&self) -> u64 {
        self.segments.iter().map(|s| s.trace.packets.len() as u64).sum()
    }

    pub fn flows(&self) -> u64 {
        self.segments.iter().map(|s| s.flows).sum()
    }
}

/// One trace a pass replays from a freshly built switch.
pub struct Segment {
    pub trace: Trace,
    /// Canonical keys of the trace's benign flows.
    pub benign_flows: HashSet<FiveTuple>,
    pub flows: u64,
}

impl Segment {
    fn new(trace: Trace) -> Self {
        let mut all = HashSet::new();
        let mut benign_flows = HashSet::new();
        for (p, &malicious) in trace.packets.iter().zip(&trace.labels) {
            let key = p.five.canonical();
            all.insert(key);
            if !malicious {
                benign_flows.insert(key);
            }
        }
        Self { trace, benign_flows, flows: all.len() as u64 }
    }
}

/// A backend the benchmark can replay through. `imbalance` is the only
/// statistic outside the [`DataPlane`] trait the benchmark reads.
pub trait Backend: DataPlane {
    /// Max over mean of per-shard packet counts; 0 for unsharded backends.
    fn imbalance(&self) -> f64 {
        0.0
    }
}

impl Backend for Pipeline {}
impl Backend for ScalarPipeline {}
impl Backend for SketchedPipeline {}
impl Backend for ShardedPipeline {
    fn imbalance(&self) -> f64 {
        self.imbalance_ratio()
    }
}

fn install<D: DataPlane>(mut dp: D, dep: &Deployment) -> D {
    dp.apply_ruleset(&dep.bootstrap).expect("bootstrap transaction applies to a fresh switch");
    dp
}

pub fn exact(cfg: PipelineConfig, dep: &Deployment) -> Pipeline {
    install(Pipeline::new(cfg, dep.fl_rules.clone(), dep.pl_rules.clone()), dep)
}

pub fn scalar(cfg: PipelineConfig, dep: &Deployment) -> ScalarPipeline {
    install(ScalarPipeline::new(cfg, dep.fl_rules.clone(), dep.pl_rules.clone()), dep)
}

pub fn sketched(cfg: PipelineConfig, dep: &Deployment) -> SketchedPipeline {
    let scfg = SketchedPipelineConfig::default()
        .with_pipeline(cfg)
        .with_budget_bytes(Some(SKETCH_BUDGET_SLOTS * FlowShard::slot_bytes()))
        .with_promote_threshold(2)
        .with_eviction(SketchEviction::TwoQ);
    install(SketchedPipeline::new(scfg, dep.fl_rules.clone(), dep.pl_rules.clone()), dep)
}

pub fn sharded(cfg: PipelineConfig, dep: &Deployment, shards: usize) -> ShardedPipeline {
    let scfg = ShardedPipelineConfig::from(cfg).with_shards(shards);
    let mut sp = ShardedPipeline::new(scfg, dep.fl_rules.clone(), dep.pl_rules.clone());
    sp.set_phase_rulesets(&dep.phase_rules);
    install(sp, dep)
}
