//! End-to-end and per-layer benchmark of the deployed iGuard detector.
//!
//! ```text
//! perfbench --workload <stream_exact|stream_sketched|storm_canon>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's packets from the seed, runs set-up (train,
//! compile, diff, build the backend), then replays the packets as a
//! closed loop through `replay_chaos_traced` for `--seconds`, one fresh
//! backend per pass, repeating set-up between passes. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` interleaves traced passes and
//! prints the per-layer metrics.
//! The last stdout line is the result object; every correctness check
//! must pass or the process exits non-zero. See README.md.

mod alloc;
mod deploy;
mod shim;
mod stats;
mod workload;

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::table::{FlowShard, FlowTableStats};
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::{OverloadStats, SketchStats};
use iguard_switch::pipeline::{PathCounters, WhitelistCounters};
use iguard_switch::replay::{
    replay_chaos_traced, ChaosConfig, MitigationLog, MitigationRecord, ReplayConfig, ReplayReport,
};
use iguard_switch::ruleset::{RulesetCounters, RulesetTxn};
use iguard_synth::trace::{extract_flows, ExtractConfig, Trace};

use deploy::{deploy, Deployment, StageTimes, STAGES};
use shim::{Fold, Record, Shim, Span};
use workload::{Backend, Input, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median. The first
/// runs before the replay, the rest are spread evenly over it, so the
/// median samples the host over the whole run, not over one stretch of
/// a few seconds.
const SETUP_REPS: usize = 9;

/// Fewest timed passes per run, however long each takes.
const MIN_PASSES: usize = 3;

/// Worker threads everything runs on.
const WORKERS: usize = 1;

/// The golden exact deployment's confusion matrix (tp, fp, tn, fn).
const GOLDEN_CONFUSION: (u64, u64, u64, u64) = (3999, 1019, 1569, 172);

const USAGE: &str = "usage: perfbench --workload <stream_exact|stream_sketched|storm_canon> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ok = iguard_runtime::par::with_workers(WORKERS, || run(&args));
    std::process::exit(if ok { 0 } else { 1 });
}

/// Everything about a pass that must not depend on timing, the shim's
/// recording mode, or the run it belongs to.
struct Outcome {
    report: String,
    blacklist: Vec<FiveTuple>,
    records: Vec<MitigationRecord>,
    unmitigated: usize,
    digests: u64,
    actions: u64,
    installs: u64,
    paths: PathCounters,
    whitelist: WhitelistCounters,
    table: FlowTableStats,
    overload: OverloadStats,
    sketch: Option<SketchStats>,
    ruleset: RulesetCounters,
    imbalance: u64,
}

impl Outcome {
    /// A digest of every field, so passes compare without keeping their
    /// outcomes alive (which would count against `peak_heap_mb`).
    fn hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.report.hash(&mut h);
        self.blacklist.hash(&mut h);
        for r in &self.records {
            (r.five, r.first_seen_seq, r.first_seen_tick, r.installed_tick).hash(&mut h);
            (r.packets_before_install, r.deciding_phase).hash(&mut h);
        }
        let counters = (
            self.unmitigated,
            self.digests,
            self.actions,
            self.installs,
            self.paths,
            self.whitelist,
            self.table,
            self.overload,
            self.sketch,
            self.ruleset,
            self.imbalance,
        );
        format!("{counters:?}").hash(&mut h);
        h.finish()
    }
}

/// What every pass keeps: its clocks and its outcome's hash.
struct Timing {
    /// Index of the input segment the pass replayed.
    segment: usize,
    wall_ns: u64,
    /// Per batch: `process_batch` entry to the end of its control tick.
    batch_us: Vec<f64>,
    allocs: u64,
    packets: u64,
    outcome: u64,
    /// Span-derived layer timings (traced passes only).
    layers: Vec<Metric>,
}

impl Timing {
    fn batches(&self) -> usize {
        self.batch_us.len()
    }

    /// Nearest-rank percentile (per-mille) of the batch latencies.
    fn latency_us(&self, permille: usize) -> f64 {
        let mut v = self.batch_us.clone();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, permille)
    }
}

/// A whole pass, as the reference and oracle passes keep it.
struct Pass {
    outcome: Outcome,
    report: ReplayReport,
    ttm: Vec<u64>,
    verdicts: Fold,
    digest_fold: Fold,
    dropped_flows: HashSet<FiveTuple>,
    spans: Vec<Span>,
    timing: Timing,
}

/// One closed-loop replay of a whole input segment through a fresh
/// backend.
fn run_pass<D: Backend>(
    dp: D,
    w: Workload,
    input: &Input,
    segment: usize,
    swap: Option<&RulesetTxn>,
    record: Record,
    run: u32,
) -> Pass {
    let trace = &input.segments[segment].trace;
    let batch = w.batch();
    let mut chaos = ChaosConfig::default();
    if let Some(txn) = swap {
        // Mid-run: the refit lands on the tick halfway through the trace.
        let ticks = trace.packets.len().div_ceil(batch) as u64;
        chaos = chaos.with_ruleset_swap(ticks / 2, txn.clone());
    }
    let bootstrap = dp.ruleset_counters();
    let mut shim = Shim::new(dp, Instant::now(), record, run);
    let mut controller = Controller::new(ControllerConfig::default());
    let mut log = MitigationLog::default();
    let rcfg = ReplayConfig::default().with_batch_size(batch);
    let root = shim.open("replay");
    let allocs_before = alloc::calls();
    let report =
        replay_chaos_traced(trace, &mut shim, &mut controller, &rcfg, &chaos, Some(&mut log));
    let allocs = alloc::calls() - allocs_before;
    shim.close(root);
    let (start, end) = (shim.spans[root].start_ns, shim.spans[root].end_ns);
    let entries = &shim.batch_entry_ns;
    let batch_us = entries
        .iter()
        .zip(entries.iter().skip(1).chain(std::iter::once(&end)))
        .map(|(a, b)| (b - a) as f64 * 1e-3)
        .collect();
    let dp = shim.inner();
    let mut ruleset = dp.ruleset_counters();
    ruleset.installed -= bootstrap.installed;
    ruleset.removed -= bootstrap.removed;
    ruleset.swaps -= bootstrap.swaps;
    let outcome = Outcome {
        report: format!("{report:?}"),
        blacklist: dp.blacklist_contents(),
        records: std::mem::take(&mut log.records),
        unmitigated: log.unmitigated(),
        digests: shim.digests_drained,
        actions: shim.actions,
        installs: shim.installs,
        paths: dp.counters(),
        whitelist: dp.whitelist_counters(),
        table: dp.flow_table_stats(),
        overload: dp.overload_stats(),
        sketch: dp.sketch_stats(),
        ruleset,
        imbalance: dp.imbalance().to_bits(),
    };
    let timing = Timing {
        segment,
        wall_ns: end - start,
        batch_us,
        allocs,
        packets: report.packets,
        outcome: outcome.hash(),
        layers: Vec::new(),
    };
    let mut ttm: Vec<u64> = outcome.records.iter().map(|r| r.packets_before_install).collect();
    ttm.sort_unstable();
    Pass {
        outcome,
        report,
        ttm,
        verdicts: shim.verdicts,
        digest_fold: shim.digest_fold,
        dropped_flows: std::mem::take(&mut shim.dropped_flows),
        spans: std::mem::take(&mut shim.spans),
        timing,
    }
}

/// The passes of one run and the probes that need a backend.
struct Measured {
    timed: Vec<Timing>,
    traced: Vec<Timing>,
    /// Spans of the first traced pass.
    spans: Vec<Span>,
    /// One untimed fingerprint pass per input segment.
    reference: Vec<Pass>,
    /// Live-heap high-water mark at the end of the timed passes.
    peak_bytes: usize,
    index_ns_per_row: f64,
}

/// Replays fresh backends from `build` until `seconds` have passed (and
/// at least [`MIN_PASSES`] times), rotating through the input segments
/// and alternating traced passes in when `trace` is set; then one untimed
/// fingerprint pass per segment. Between passes it calls `set_up` for
/// the remaining set-ups, evenly over the `seconds`.
fn measure<D: Backend>(
    build: impl Fn() -> D,
    mut set_up: impl FnMut(),
    w: Workload,
    input: &Input,
    swap: Option<&RulesetTxn>,
    seconds: u64,
    trace: bool,
) -> Measured {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let mut setups = 1;
    let (mut timed, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let mut run = 0u32;
    let segments = input.segments.len();
    // A traced pass replays the same segment as the timed pass before it.
    let pass = |record, run: u32| {
        let segment = run as usize / (1 + trace as usize) % segments;
        run_pass(build(), w, input, segment, swap, record, run)
    };
    while timed.len() < MIN_PASSES.max(segments) || Instant::now() < deadline {
        let due = 1
            + (SETUP_REPS - 1) * started.elapsed().as_millis() as usize / (seconds as usize * 1000);
        while setups < due.min(SETUP_REPS) {
            set_up();
            setups += 1;
        }
        timed.push(pass(Record::Timing, run).timing);
        run += 1;
        if trace {
            let mut p = pass(Record::Trace, run);
            p.timing.layers = span_layers(&p);
            if spans.is_empty() {
                spans = std::mem::take(&mut p.spans);
            }
            traced.push(p.timing);
            run += 1;
        }
    }
    for _ in setups..SETUP_REPS {
        set_up();
    }
    let peak_bytes = alloc::peak_bytes();
    let first = &input.segments[0].trace;
    let index_ns_per_row = if trace { index_probe(build(), first) } else { 0.0 };
    let reference = (0..segments)
        .map(|segment| run_pass(build(), w, input, segment, swap, Record::Fingerprint, run))
        .collect();
    Measured { timed, traced, spans, reference, peak_bytes, index_ns_per_row }
}

/// `DataPlane::classify_batch` over the FL rows of the workload's own
/// flows (cut at the pipeline's 4-packet threshold): ns per row, median
/// of 5.
fn index_probe<D: Backend>(mut dp: D, trace: &Trace) -> f64 {
    let n = trace.packets.len().min(1 << 20);
    let prefix = Trace { packets: trace.packets[..n].to_vec(), labels: trace.labels[..n].to_vec() };
    let rows = extract_flows(&prefix, &ExtractConfig { pkt_threshold: 4, ..Default::default() });
    let rows = rows.features;
    let mut out = Vec::new();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dp.classify_batch(black_box(&rows), &mut out);
            black_box(&out);
            t.elapsed().as_nanos() as f64 / rows.rows().max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

/// `FlowShard::observe` over the workload's packets at its table
/// configuration: ns per packet, median of 3 fresh tables.
fn observe_probe(w: Workload, trace: &Trace) -> f64 {
    let n = trace.packets.len().min(1 << 20);
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut table = FlowShard::new(w.pipeline_config().flow_table);
            let t = Instant::now();
            for p in &trace.packets[..n] {
                black_box(table.observe(p, p.ts_ns));
            }
            t.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

/// Collects failed correctness checks.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }
}

/// Runs the workload-specific correctness checks against the reference
/// passes.
fn check_workload(w: Workload, input: &Input, dep: &Deployment, m: &Measured, c: &mut Checks) {
    let cfg = w.pipeline_config();
    for (segment, reference) in m.reference.iter().enumerate() {
        match w {
            Workload::StreamExact => {
                let scalar = workload::scalar(cfg, dep);
                let oracle = run_pass(scalar, w, input, segment, None, Record::Fingerprint, 0);
                c.require(
                    oracle.verdicts == reference.verdicts
                        && oracle.digest_fold == reference.digest_fold
                        && oracle.outcome.blacklist == reference.outcome.blacklist
                        && oracle.outcome.report == reference.outcome.report,
                    || "columnar pipeline diverged from the ScalarPipeline oracle".into(),
                );
            }
            Workload::StreamSketched => {
                let exact =
                    run_pass(workload::exact(cfg, dep), w, input, segment, None, Record::Timing, 0);
                let s = reference.outcome.sketch.unwrap_or_default();
                c.require(
                    s.tracked <= s.max_tracked
                        && s.budget_bytes.is_some_and(|b| s.resident_bytes <= b),
                    || format!("byte budget breached: {s:?}"),
                );
                let (r, e) = (&reference.report, &exact.report);
                c.require(r.packets == e.packets && r.tp + r.fn_ == e.tp + e.fn_, || {
                    "sketched stream replayed a different packet population".into()
                });
                // Every verdict flip against the exact run traces back to
                // shed state: a packet the sketch absorbed, or a flow
                // restarted by eviction (at most `pkt_threshold`
                // re-windowed packets each).
                let threshold = cfg.flow_table.pkt_threshold;
                let shed_work = s.absorbed + s.evicted * threshold;
                let (dfp, dfn) = (r.fp.abs_diff(e.fp), r.fn_.abs_diff(e.fn_));
                c.require(dfp <= shed_work && dfn <= shed_work, || {
                    format!("FP/FN deltas ({dfp}, {dfn}) exceed the shed-work bound {shed_work}")
                });
            }
            Workload::StormCanon => {
                let one_shard = workload::sharded(cfg, dep, 1);
                let swap = dep.refit.as_ref();
                let one = run_pass(one_shard, w, input, segment, swap, Record::Fingerprint, 0);
                c.require(
                    one.timing.outcome == reference.timing.outcome
                        && one.verdicts == reference.verdicts
                        && one.digest_fold == reference.digest_fold,
                    || "fingerprint at 1 shard differs from the one at 2".into(),
                );
                let swaps = reference.outcome.ruleset.swaps;
                c.require(swaps == 1, || format!("refit swap applied {swaps} times, not once"));
            }
        }
    }
    if w == Workload::StormCanon {
        let golden = deploy::golden_confusion();
        c.require(golden == GOLDEN_CONFUSION, || {
            format!("golden confusion {golden:?} != {GOLDEN_CONFUSION:?}")
        });
    }
}

/// The reference passes' counts, summed over the input segments.
#[derive(Default)]
struct Totals {
    report: ReplayReport,
    digests: u64,
    actions: u64,
    installs: u64,
    mitigated: u64,
    unmitigated: u64,
    benign_flows: u64,
    benign_dropped: u64,
    churn: u64,
    paths: PathCounters,
    table: FlowTableStats,
    overload: OverloadStats,
    sketch: SketchStats,
    /// Mean over segments.
    imbalance: f64,
    /// Sorted packets-before-install of every mitigated flow.
    ttm: Vec<u64>,
}

impl Totals {
    fn of(reference: &[Pass], input: &Input) -> Self {
        let mut t = Totals::default();
        for (p, seg) in reference.iter().zip(&input.segments) {
            let (r, o, sum) = (&p.report, &p.outcome, &mut t.report);
            sum.packets += r.packets;
            sum.tp += r.tp;
            sum.fp += r.fp;
            sum.tn += r.tn;
            sum.fn_ += r.fn_;
            sum.digests += r.digests;
            sum.action_failures += r.action_failures;
            sum.wl_lookups += r.wl_lookups;
            sum.wl_hits += r.wl_hits;
            sum.dup_digests += r.dup_digests;
            sum.shed += r.shed;
            t.digests += o.digests;
            t.actions += o.actions;
            t.installs += o.installs;
            t.mitigated += o.records.len() as u64;
            t.unmitigated += o.unmitigated as u64;
            t.benign_flows += seg.benign_flows.len() as u64;
            t.benign_dropped +=
                p.dropped_flows.iter().filter(|f| seg.benign_flows.contains(f)).count() as u64;
            t.churn += o.ruleset.installed + o.ruleset.removed;
            let (tp, op) = (&mut t.paths, &o.paths);
            tp.blacklist += op.blacklist;
            tp.brown += op.brown;
            tp.blue += op.blue;
            tp.orange += op.orange;
            tp.purple += op.purple;
            tp.green_loopback += op.green_loopback;
            t.table = t.table.merge(&o.table);
            t.overload = t.overload.merge(&o.overload);
            let (ts, os) = (&mut t.sketch, o.sketch.unwrap_or_default());
            ts.promoted += os.promoted;
            ts.absorbed += os.absorbed;
            ts.evicted += os.evicted;
            ts.resident_bytes = ts.resident_bytes.max(os.resident_bytes);
            t.imbalance += f64::from_bits(o.imbalance) / reference.len() as f64;
            t.ttm.extend_from_slice(&p.ttm);
        }
        t.ttm.sort_unstable();
        t
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Laplace's rule of succession, `(k + 1) / (n + 2)`: the end-to-end
/// rates stay positive and comparable when a count is zero (a loss-free
/// run reads `1 / (n + 2)`, not 0), and move by under `1 / n` otherwise.
fn rate(k: u64, n: u64) -> f64 {
    (k + 1) as f64 / (n + 2) as f64
}

fn end_to_end(
    m: &Measured,
    t: &Totals,
    tail: usize,
    setup_s: f64,
    heap_base: usize,
) -> Vec<Metric> {
    // Throughput and the median batch take each batch's best time over
    // the passes that replayed its segment (min-of-N per batch). Every
    // pass does the same work in the same batch, and other tenants of the
    // host slow stretches of seconds, never speed one up: a pass they
    // slow in part puts its own median anywhere between its fast and
    // slow batches, while the per-batch best keeps every cost that recurs
    // on each pass. The batch latencies tile the replay call from the
    // first batch on, so their best times sum to its best wall time.
    let mut floor = Vec::new();
    for segment in 0..m.reference.len() {
        let passes: Vec<&[f64]> =
            m.timed.iter().filter(|p| p.segment == segment).map(|p| &p.batch_us[..]).collect();
        floor.extend(stats::elementwise_min(&passes));
    }
    let floor_s = floor.iter().sum::<f64>() * 1e-6;
    floor.sort_by(f64::total_cmp);
    // The tail takes the median pass. The per-batch best would need a
    // fast pass over each of the few batches beyond the tail percentile,
    // and a best-of-N tail would hide the hiccups a tail exists to show.
    let tails: Vec<f64> = m.timed.iter().map(|p| p.latency_us(tail)).collect();
    let r = &t.report;
    let shed = t.overload.shed_benign + t.overload.shed_malicious;
    vec![
        ("pkts_per_s", r.packets as f64 / floor_s, "pkt/s"),
        ("verdict_p50_us", stats::percentile(&floor, 500), "us"),
        ("verdict_tail_us", stats::median(&tails), "us"),
        ("setup_s", setup_s, "s"),
        ("peak_heap_mb", m.peak_bytes.saturating_sub(heap_base) as f64 / 1048576.0, "MiB"),
        ("pkt_tpr", rate(r.tp, r.tp + r.fn_), "ratio"),
        ("pkt_fpr", rate(r.fp, r.fp + r.tn), "ratio"),
        ("flow_fpr", rate(t.benign_dropped, t.benign_flows), "ratio"),
        ("mitigated_frac", rate(t.mitigated, t.mitigated + t.unmitigated), "ratio"),
        ("ttm_p50_pkts", stats::percentile_binned(&t.ttm, 500), "pkt"),
        ("ttm_p99_pkts", stats::percentile_binned(&t.ttm, 990), "pkt"),
        ("digest_loss_frac", rate(shed + r.action_failures, r.digests + shed), "ratio"),
    ]
}

/// Span-derived layer timings of one traced pass.
fn span_layers(p: &Pass) -> Vec<Metric> {
    let total =
        |name: &str| -> u64 { p.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum() };
    let root_self = shim::self_times(&p.spans)[0];
    let packets = p.report.packets;
    vec![
        (
            "switch.process_batch.ns_per_pkt",
            ratio(total("switch.process_batch"), packets),
            "ns/pkt",
        ),
        ("replay.control.self_ns_per_pkt", ratio(root_self, packets), "ns/pkt"),
        (
            "switch.drain.ns_per_digest",
            ratio(total("switch.drain"), p.outcome.digests),
            "ns/digest",
        ),
        (
            "switch.apply.ns_per_action",
            ratio(total("switch.apply"), p.outcome.actions),
            "ns/action",
        ),
        ("switch.apply_ruleset.us", total("switch.apply_ruleset") as f64 * 1e-3, "us"),
    ]
}

fn per_layer(
    m: &Measured,
    t: &Totals,
    setup: &[StageTimes],
    input: &Input,
    w: Workload,
    untraced_wall: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    // Timings: median over the traced passes.
    for (i, &(name, _, unit)) in m.traced[0].layers.iter().enumerate() {
        let v: Vec<f64> = m.traced.iter().map(|p| p.layers[i].1).collect();
        out.push((name, stats::median(&v), unit));
    }
    let (r, o, s) = (&t.report, &t.overload, &t.sketch);
    let packets = r.packets;
    let paths = t.paths;
    let offered = paths.total_offered();
    out.extend([
        ("switch.ruleset_churn", t.churn as f64, "count"),
        ("flow.observe.ns_per_pkt", observe_probe(w, &input.segments[0].trace), "ns/pkt"),
        ("core.index.ns_per_row", m.index_ns_per_row, "ns/row"),
        ("switch.paths.blacklist_frac", ratio(paths.blacklist, offered), "ratio"),
        ("switch.paths.brown_frac", ratio(paths.brown, offered), "ratio"),
        ("switch.paths.blue_frac", ratio(paths.blue, offered), "ratio"),
        ("switch.paths.orange_frac", ratio(paths.orange, offered), "ratio"),
        ("switch.paths.purple_frac", ratio(paths.purple, offered), "ratio"),
        ("switch.paths.green_loopback_frac", ratio(paths.green_loopback, offered), "ratio"),
        ("switch.wl.lookups_per_kpkt", 1e3 * ratio(r.wl_lookups, packets), "1/kpkt"),
        ("switch.wl.hit_ratio", ratio(r.wl_hits, r.wl_lookups), "ratio"),
        ("flow.table.fill", t.table.fill(), "ratio"),
        ("flow.table.collision_frac", ratio(t.table.collision_packets, packets), "ratio"),
        ("switch.sharded.imbalance", t.imbalance, "ratio"),
        ("switch.overload.degraded_batches", o.degraded_batches as f64, "count"),
        ("switch.overload.shed_benign", o.shed_benign as f64, "count"),
        ("switch.overload.shed_malicious", o.shed_malicious as f64, "count"),
        ("switch.overload.digest_hwm", o.digest_buffered_hwm as f64, "count"),
        ("switch.sketch.promoted", s.promoted as f64, "count"),
        ("switch.sketch.absorbed", s.absorbed as f64, "count"),
        ("switch.sketch.evicted", s.evicted as f64, "count"),
        ("switch.sketch.resident_bytes", s.resident_bytes as f64, "B"),
        ("controller.digests_per_kpkt", 1e3 * ratio(t.digests, packets), "1/kpkt"),
        ("controller.installs", t.installs as f64, "count"),
        ("controller.dup_digests", r.dup_digests as f64, "count"),
        ("controller.shed", r.shed as f64, "count"),
    ]);
    let allocs: Vec<f64> = m.timed.iter().map(|p| p.allocs as f64 / p.batches() as f64).collect();
    out.push(("alloc.per_batch", stats::median(&allocs), "alloc/batch"));
    for (i, &name) in STAGES.iter().enumerate() {
        let v: Vec<f64> = setup.iter().map(|t| t.0[i]).collect();
        out.push((name, stats::median(&v), "s"));
    }
    out.push(("synth.gen.ns_per_pkt", input.gen_s * 1e9 / input.packets().max(1) as f64, "ns/pkt"));
    let traced_wall = stats::median(&m.traced.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());
    out.push(("trace.overhead_frac", traced_wall / untraced_wall - 1.0, "ratio"));
    out
}

/// Writes the first traced pass's spans as tab-separated lines.
fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::from("id\tparent\trun\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        let _ =
            writeln!(text, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.run, s.name, s.start_ns, s.end_ns);
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(text.as_bytes())?;
    f.flush()
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> bool {
    let w = args.workload;
    let input = w.generate(args.seed);
    let cfg = w.pipeline_config();

    // Set-up, timed SETUP_REPS times from the same inputs: once here,
    // the rest during the replay.
    let set_up = || {
        let mut t = StageTimes::default();
        let d = deploy(&input.training, &mut t);
        match w {
            Workload::StreamExact => drop(t.time("switch.new.s", || workload::exact(cfg, &d))),
            Workload::StreamSketched => {
                drop(t.time("switch.new.s", || workload::sketched(cfg, &d)))
            }
            Workload::StormCanon => {
                drop(t.time("switch.new.s", || workload::sharded(cfg, &d, workload::STORM_SHARDS)))
            }
        }
        (d, t)
    };
    let heap_base = alloc::live_bytes();
    alloc::reset_peak();
    let (dep, first) = set_up();
    let mut setup = vec![first];
    let more = || setup.push(set_up().1);

    let started = Instant::now();
    let swap = dep.refit.as_ref();
    let (secs, trace) = (args.seconds, args.trace);
    let m = match w {
        Workload::StreamExact => {
            measure(|| workload::exact(cfg, &dep), more, w, &input, None, secs, trace)
        }
        Workload::StreamSketched => {
            measure(|| workload::sketched(cfg, &dep), more, w, &input, None, secs, trace)
        }
        Workload::StormCanon => measure(
            || workload::sharded(cfg, &dep, workload::STORM_SHARDS),
            more,
            w,
            &input,
            swap,
            secs,
            trace,
        ),
    };
    let measured_s = started.elapsed().as_secs_f64();
    let setup_s = stats::median(&setup.iter().map(StageTimes::total).collect::<Vec<_>>());

    let mut checks = Checks::default();
    let mut failed_packets = 0u64;
    for t in m.timed.iter().chain(&m.traced) {
        if t.outcome != m.reference[t.segment].timing.outcome {
            failed_packets += t.packets;
        }
    }
    checks.require(failed_packets == 0, || {
        "a timed or traced pass diverged from the reference pass".into()
    });
    check_workload(w, &input, &dep, &m, &mut checks);

    let batches = m.reference.iter().map(|p| p.timing.batches()).min().unwrap_or(0);
    let tail = stats::tail_percentile(batches);
    checks.require(tail.is_some(), || format!("{batches} batches are too few for a tail"));
    let (tail_permille, tail_beyond) = tail.unwrap_or((0, 0));

    let untraced_wall =
        stats::median(&m.timed.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());
    let totals = Totals::of(&m.reference, &input);
    let metrics = if trace {
        per_layer(&m, &totals, &setup, &input, w, untraced_wall)
    } else {
        end_to_end(&m, &totals, tail_permille, setup_s, heap_base)
    };
    checks.require(metrics.iter().all(|(_, v, _)| v.is_finite()), || {
        "a metric is not a finite number".into()
    });

    let mut spans_file = String::new();
    if trace {
        spans_file = format!("perfbench/out/spans-{}-seed{}.tsv", w.name(), args.seed);
        if let Err(e) = write_spans(&spans_file, &m.spans) {
            checks.require(false, || format!("writing {spans_file}: {e}"));
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cpus\": {host_cpus}, \
         \"workers\": {WORKERS}, \"batch_size\": {}, \"segments\": {}, \"packets\": {}, \
         \"flows\": {}, \
         \"run_seconds\": {}, \"measured_s\": {measured_s}, \"timed_passes\": {}, \
         \"traced_passes\": {}, \"setup_reps\": {SETUP_REPS}, \"batches_per_pass\": {batches}, \
         \"tail_percentile\": {}, \"tail_batches_beyond\": {tail_beyond}, \"fl_rules\": {}, \
         \"tcam_entries\": {}, \"spans_file\": \"{spans_file}\"}}}}",
        w.name(),
        args.seed,
        trace as u8,
        w.batch(),
        input.segments.len(),
        input.packets(),
        input.flows(),
        args.seconds,
        m.timed.len(),
        m.traced.len(),
        tail_permille as f64 / 10.0,
        dep.fl_rules.len(),
        dep.bootstrap.installs.len(),
    );
    let attempted: u64 = m.timed.iter().chain(&m.traced).map(|t| t.packets).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed_packets}, \"metrics\": {}}}",
        checks.failures.is_empty(),
        json_metrics(&metrics)
    );
    checks.failures.is_empty()
}
