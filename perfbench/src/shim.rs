//! A forwarding [`DataPlane`] shim: every trait call goes straight to the
//! wrapped backend, and the shim records what the benchmark needs around
//! it — batch entry times always, a verdict/digest fingerprint when asked,
//! and a span per call when tracing.

use std::collections::HashSet;
use std::time::Instant;

use iguard_core::error::SwitchError;
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::table::FlowTableStats;
use iguard_runtime::Dataset;
use iguard_switch::data_plane::{DataPlane, OverloadStats, SketchStats};
use iguard_switch::pipeline::{
    ControlAction, Digest, PacketVerdict, PathCounters, ProcessOutcome, SeqDigest,
    WhitelistCounters,
};
use iguard_switch::ruleset::{RulesetCounters, RulesetTxn};

/// One timed interval. `parent` indexes the enclosing span in the same
/// span list; spans of one replay pass share `run`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Order-sensitive 64-bit FNV-1a fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fold(pub u64);

impl Default for Fold {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fold {
    pub fn add(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn add_five(&mut self, f: &FiveTuple) {
        self.add(((f.src_ip as u64) << 32) | f.dst_ip as u64);
        self.add(((f.src_port as u64) << 24) | ((f.dst_port as u64) << 8) | f.proto as u64);
    }
}

/// What the shim records besides forwarding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Record {
    /// Batch entry times and call counts only (the timed passes).
    Timing,
    /// Also fold every verdict and drained digest into a fingerprint and
    /// collect the flows that saw a `Drop`.
    Fingerprint,
    /// Also record a span around every call (and nothing else, so the
    /// traced run's overhead is the spans' alone).
    Trace,
}

/// The forwarding shim.
pub struct Shim<D> {
    inner: D,
    origin: Instant,
    record: Record,
    run: u32,
    parent: Option<usize>,
    pub spans: Vec<Span>,
    /// `process_batch` entry times, ns since `origin`.
    pub batch_entry_ns: Vec<u64>,
    pub verdicts: Fold,
    pub digest_fold: Fold,
    /// Canonical keys of flows with at least one `Drop` verdict.
    pub dropped_flows: HashSet<FiveTuple>,
    pub digests_drained: u64,
    pub actions: u64,
    pub installs: u64,
}

impl<D: DataPlane> Shim<D> {
    pub fn new(inner: D, origin: Instant, record: Record, run: u32) -> Self {
        Self {
            inner,
            origin,
            record,
            run,
            parent: None,
            spans: Vec::new(),
            batch_entry_ns: Vec::new(),
            verdicts: Fold::default(),
            digest_fold: Fold::default(),
            dropped_flows: HashSet::new(),
            digests_drained: 0,
            actions: 0,
            installs: 0,
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that parents every call span until [`Shim::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: None, run: self.run });
        self.parent = Some(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
        self.parent = self.spans[span].parent;
    }

    /// Runs one forwarded call, inside a span when tracing.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut D) -> R) -> R {
        if self.record != Record::Trace {
            return f(&mut self.inner);
        }
        let start_ns = self.now_ns();
        let r = f(&mut self.inner);
        let end_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns, parent: self.parent, run: self.run });
        r
    }

    fn fold_digests(&mut self, ds: impl ExactSizeIterator<Item = Digest>) {
        self.digests_drained += ds.len() as u64;
        if self.record == Record::Fingerprint {
            for d in ds {
                self.digest_fold.add_five(&d.five);
                self.digest_fold.add(((d.malicious as u64) << 8) | d.phase as u64);
            }
        }
    }
}

impl<D: DataPlane> DataPlane for Shim<D> {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<ProcessOutcome>) {
        let entry_ns = self.now_ns();
        self.batch_entry_ns.push(entry_ns);
        self.call("switch.process_batch", |d| d.process_batch(pkts, out));
        if self.record == Record::Fingerprint {
            for (o, p) in out.iter().zip(pkts) {
                self.verdicts
                    .add(((o.verdict as u64) << 8) | ((o.path as u64) << 1) | o.mirrored as u64);
                if o.verdict == PacketVerdict::Drop {
                    self.dropped_flows.insert(p.five.canonical());
                }
            }
        }
    }

    fn drain_digests_into(&mut self, out: &mut Vec<Digest>) {
        let before = out.len();
        self.call("switch.drain", |d| d.drain_digests_into(out));
        self.fold_digests(out[before..].iter().copied());
    }

    fn drain_seq_digests_into(&mut self, out: &mut Vec<SeqDigest>) {
        let before = out.len();
        self.call("switch.drain", |d| d.drain_seq_digests_into(out));
        self.fold_digests(out[before..].iter().map(|s| s.digest));
    }

    fn apply(&mut self, action: ControlAction) {
        self.actions += 1;
        self.installs += matches!(action, ControlAction::InstallBlacklist(_)) as u64;
        self.call("switch.apply", |d| d.apply(action));
    }

    fn apply_ruleset(&mut self, txn: &RulesetTxn) -> Result<(), SwitchError> {
        self.call("switch.apply_ruleset", |d| d.apply_ruleset(txn))
    }

    fn ruleset_version(&self) -> u64 {
        self.inner.ruleset_version()
    }

    fn ruleset_counters(&self) -> RulesetCounters {
        self.inner.ruleset_counters()
    }

    fn blacklist_contents(&self) -> Vec<FiveTuple> {
        self.inner.blacklist_contents()
    }

    fn resync_labeled_into(&mut self, out: &mut Vec<SeqDigest>) {
        self.call("switch.resync", |d| d.resync_labeled_into(out));
    }

    fn counters(&self) -> PathCounters {
        self.inner.counters()
    }

    fn whitelist_counters(&self) -> WhitelistCounters {
        self.inner.whitelist_counters()
    }

    fn classify_batch(&mut self, rows: &Dataset, out: &mut Vec<bool>) {
        self.call("switch.classify_batch", |d| d.classify_batch(rows, out));
    }

    fn flow_table_stats(&self) -> FlowTableStats {
        self.inner.flow_table_stats()
    }

    fn blacklist_len(&self) -> usize {
        self.inner.blacklist_len()
    }

    fn packets_processed(&self) -> u64 {
        self.inner.packets_processed()
    }

    fn sketch_stats(&self) -> Option<SketchStats> {
        self.inner.sketch_stats()
    }

    fn overload_stats(&self) -> OverloadStats {
        self.inner.overload_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_core::rules::{Hypercube, RuleSet};
    use iguard_flow::table::FlowTableConfig;
    use iguard_runtime::rng::Rng;
    use iguard_switch::controller::{Controller, ControllerConfig};
    use iguard_switch::pipeline::{Pipeline, PipelineConfig};
    use iguard_switch::replay::{replay_chaos_traced, ChaosConfig, MitigationLog, ReplayConfig};
    use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
    use iguard_switch::tcam::{compile_ruleset, FieldSpec};
    use iguard_switch::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
    use iguard_synth::attacks::Attack;
    use iguard_synth::benign::benign_trace;
    use iguard_synth::trace::Trace;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, run: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child: 25..40 adds only 30..40.
            span(25, 40, Some(0)),
            span(60, 70, Some(0)),
            // A grandchild counts against its parent, not the root.
            span(62, 66, Some(3)),
            // A child sticking out of its parent is clipped to it.
            span(95, 120, Some(0)),
        ];
        let got = self_times(&spans);
        assert_eq!(got[0], 100 - 30 - 10 - 5);
        assert_eq!(got[1], 20);
        assert_eq!(got[2], 15);
        assert_eq!(got[3], 10 - 4);
        assert_eq!(got[4], 4);
        assert_eq!(got[5], 25);
    }

    /// FL whitelist: benign iff mean packet size (feature 2) is below 600.
    fn fl_rules() -> RuleSet {
        let lo = vec![f32::NEG_INFINITY; 13];
        let mut hi = vec![f32::INFINITY; 13];
        hi[2] = 600.0;
        RuleSet {
            bounds: vec![(0.0, 2000.0); 13],
            whitelist: vec![Hypercube { lo, hi }],
            total_regions: 2,
        }
    }

    fn pl_rules() -> RuleSet {
        let (lo, hi) = (vec![f32::NEG_INFINITY; 4], vec![f32::INFINITY; 4]);
        RuleSet {
            bounds: vec![(0.0, 1.0); 4],
            whitelist: vec![Hypercube { lo, hi }],
            total_regions: 1,
        }
    }

    /// Everything a backend reports through the trait after a replay.
    fn observe<D: DataPlane>(dp: &mut D, trace: &Trace) -> String {
        let fl = fl_rules();
        let table = compile_ruleset(&fl, &[FieldSpec::new(16, 30.0); 13]);
        // A resync sweep every 2 ticks and a mid-run ruleset install make
        // the replay call every trait method.
        let chaos = ChaosConfig::default()
            .with_resync_interval(2)
            .with_ruleset_swap(3, RulesetTxn::full_install(1, &table, fl));
        let mut controller = Controller::new(ControllerConfig::default());
        let mut log = MitigationLog::default();
        let rcfg = ReplayConfig::default().with_batch_size(64);
        let report = replay_chaos_traced(trace, dp, &mut controller, &rcfg, &chaos, Some(&mut log));
        let mut resync = Vec::new();
        dp.resync_labeled_into(&mut resync);
        let mut rows = Dataset::default();
        for i in 0..50 {
            let mut row = vec![1.0f32; 13];
            row[2] = (i * 40) as f32;
            rows.push_row(&row);
        }
        let mut verdicts = Vec::new();
        dp.classify_batch(&rows, &mut verdicts);
        dp.apply(ControlAction::InstallBlacklist(trace.packets[0].five));
        let mut plain = Vec::new();
        dp.drain_digests_into(&mut plain);
        format!(
            "{report:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {} {} {resync:?} {verdicts:?} \
             {plain:?} {:?}",
            log.records,
            dp.blacklist_contents(),
            dp.counters(),
            dp.whitelist_counters(),
            dp.flow_table_stats(),
            dp.sketch_stats(),
            dp.overload_stats(),
            dp.ruleset_counters(),
            dp.drain_digests(),
            dp.ruleset_version(),
            dp.blacklist_len(),
            dp.packets_processed(),
            log.unmitigated(),
        )
    }

    fn assert_forwards<D: DataPlane>(build: impl Fn() -> D, trace: &Trace) {
        let bare = observe(&mut build(), trace);
        for record in [Record::Timing, Record::Fingerprint, Record::Trace] {
            let mut shim = Shim::new(build(), Instant::now(), record, 0);
            assert_eq!(observe(&mut shim, trace), bare, "{record:?}");
        }
    }

    #[test]
    fn shim_forwards_every_trait_method() {
        let mut rng = Rng::seed_from_u64(11);
        let trace = Trace::merge(vec![
            benign_trace(20, 2.0, &mut rng),
            Attack::UdpDdos.trace(10, 2.0, &mut rng),
        ]);
        let small = PipelineConfig::default().with_flow_table(
            FlowTableConfig::default().with_pkt_threshold(4).with_slots_per_table(16),
        );
        assert_forwards(|| Pipeline::new(small, fl_rules(), pl_rules()), &trace);
        assert_forwards(
            || {
                let cfg = SketchedPipelineConfig::default()
                    .with_pipeline(small)
                    .with_budget_bytes(Some(8 * iguard_flow::table::FlowShard::slot_bytes()))
                    .with_promote_threshold(2)
                    .with_eviction(SketchEviction::TwoQ);
                SketchedPipeline::new(cfg, fl_rules(), pl_rules())
            },
            &trace,
        );
        assert_forwards(
            || {
                let cfg = ShardedPipelineConfig::from(small).with_shards(2);
                ShardedPipeline::new(cfg, fl_rules(), pl_rules())
            },
            &trace,
        );
    }
}
