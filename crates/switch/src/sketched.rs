//! Sketch-assisted data plane: a count–min + Bloom admission filter in
//! front of the exact flow tables, under a hard resident-bytes budget.
//!
//! The exact [`crate::pipeline::Pipeline`] gives every new flow a table
//! slot on its first packet. At a million concurrent flows that is
//! hundreds of megabytes of register state — far beyond what a switch
//! pipeline stage holds. The Zipf reality of traffic is that *most flows
//! are short*: a slot spent on a two-packet DNS exchange is a slot a
//! long-lived flow (the ones the FL whitelist can actually classify)
//! cannot use.
//!
//! [`SketchedPipeline`] is the exact pipeline with a different
//! [`Admission`] hook on its columnar walk
//! ([`crate::pipeline::MatchEngine::process_rows`]). The hook sits on the
//! untracked path of the flow table (the [`FlowShard`] resident/admit
//! seam):
//!
//! * A **Bloom filter** remembers "seen at least once" — the first packet
//!   of any flow stays in the sketch (implicit estimate 1) and never
//!   touches the exact table.
//! * A **count–min sketch** counts repeat arrivals; since CMS only ever
//!   *over*-estimates, any flow that truly reaches
//!   `promote_threshold` packets within a sketch window is **guaranteed**
//!   to be promoted into the exact table by that packet — the bounded-FN
//!   argument of DESIGN.md §12.
//! * Packets of unpromoted flows are **absorbed**: the hook reports them
//!   back to the walk, which defers their stateless packet-level verdict
//!   as an orange row (the same decision the collision path makes — the
//!   paper's "cannot be tracked" fallback). They are counted in
//!   `switch.sketch.absorbed`.
//!
//! Promoted flows claim exact slots, subject to a **resident-byte
//! budget**: `budget_bytes / slot_bytes` flows at most. At the cap, a
//! pluggable policy ([`SketchEviction`]: FIFO / LRU / random / 2Q) picks
//! a victim, whose slot is released (`switch.sketch.evicted`). CMS counts
//! survive eviction, so an evicted-but-active flow re-promotes on its
//! next packet. The policy's book is indexed by flow-table slot id — the
//! table reports the slot on every resident hit, claim and clear — so no
//! book operation hashes a key.
//!
//! With `promote_threshold ≤ 1` **and** no budget, the admission layer is
//! inert and the backend is packet-for-packet identical to [`Pipeline`]
//! (verdicts, seq-tagged digests, every counter) — pinned by the
//! `scale_parity` suite.

use iguard_core::error::SwitchError;
use iguard_core::rules::RuleSet;
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::sketch::{BloomFilter, CountMinSketch};
use iguard_flow::table::{FlowShard, FlowTableStats, InsertOutcome, ObserveTallies, SlotClaim};
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;
use iguard_telemetry::{counter, histogram};

use crate::data_plane::{DataPlane, OverloadStats, SketchStats};
use crate::pipeline::{
    Admission, ControlAction, Digest, PathCounters, Pipeline, PipelineConfig, ProcessOutcome,
    SeqDigest, ShardState, WhitelistCounters,
};
use crate::ruleset::{RulesetCounters, RulesetTxn};

/// Victim-selection policy of the budgeted exact table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SketchEviction {
    /// Evict the oldest-admitted flow.
    Fifo,
    /// Evict the least-recently-*seen* flow (any packet refreshes).
    Lru,
    /// Evict a uniformly random tracked flow (seeded, deterministic).
    Random,
    /// Simplified 2Q: fresh admissions sit in a FIFO probation queue
    /// (A1in); a repeat packet promotes to the protected LRU main queue
    /// (Am). Victims come from probation first — one-hit wonders never
    /// displace proven flows.
    TwoQ,
}

/// Configuration of a [`SketchedPipeline`]. The default is the inert
/// exact-parity mode: no budget, promote on first packet.
#[derive(Clone, Copy, Debug)]
pub struct SketchedPipelineConfig {
    pub pipeline: PipelineConfig,
    /// Hard cap on exact-table resident bytes (`None` = unbudgeted).
    /// Translated to a tracked-flow cap via
    /// [`FlowShard::slot_bytes`], minimum 1 flow.
    pub budget_bytes: Option<usize>,
    /// Sketch estimate at which a flow earns an exact slot. `≤ 1`
    /// bypasses the sketch entirely (exact-parity mode).
    pub promote_threshold: u32,
    pub eviction: SketchEviction,
    /// Count–min geometry (width is rounded up to a power of two).
    pub cms_width: usize,
    pub cms_depth: usize,
    /// Bloom geometry (bits rounded up to a power of two).
    pub bloom_bits: usize,
    pub bloom_hashes: usize,
    /// Sketch window: CMS + Bloom are cleared after this many untracked
    /// observations, so stale counts cannot promote dead flows forever.
    pub window_packets: u64,
    /// Seed of the sketch hash families and the random-eviction RNG.
    pub seed: u64,
}

impl Default for SketchedPipelineConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            budget_bytes: None,
            promote_threshold: 1,
            eviction: SketchEviction::Fifo,
            cms_width: 4096,
            cms_depth: 4,
            bloom_bits: 1 << 16,
            bloom_hashes: 2,
            window_packets: 1 << 20,
            seed: 0xC0FF_EE00,
        }
    }
}

iguard_runtime::builder_setters! { SketchedPipelineConfig =>
    /// Builder: pipeline semantics.
    with_pipeline => pipeline: PipelineConfig,
    /// Builder: exact-table byte budget (`None` = unbudgeted).
    with_budget_bytes => budget_bytes: Option<usize>,
    /// Builder: sketch estimate at which a flow earns an exact slot.
    with_promote_threshold => promote_threshold: u32,
    /// Builder: eviction policy under budget pressure.
    with_eviction => eviction: SketchEviction,
    /// Builder: sketch hash-family / eviction-RNG seed.
    with_seed => seed: u64,
}

const NIL: u32 = u32::MAX;

/// [`Node::list`] of a slot the book does not hold.
const UNBOOKED: u8 = u8::MAX;

/// Intrusive doubly-linked-list node of the queue-based policies, one
/// per flow-table slot id.
#[derive(Clone, Copy, Debug)]
struct Node {
    prev: u32,
    next: u32,
    /// Which list the slot is on: 0 = probation/main queue, 1 = 2Q's
    /// protected Am queue, [`UNBOOKED`] = not tracked.
    list: u8,
}

/// The set of tracked flows plus the policy's victim ordering, indexed by
/// flow-table slot id (a resident flow never changes slot). `len()` is
/// exactly the number of exact-table residents — kept in lockstep via the
/// [`SlotClaim`] channel — so budget checks are O(1) and never scan the
/// tables, and no operation hashes a key.
struct EvictionBook {
    policy: SketchEviction,
    len: usize,
    /// Queue policies: one node per slot id (empty for Random).
    nodes: Vec<Node>,
    /// Queue heads/tails, indexed by list id (list 1 used by 2Q only).
    head: [u32; 2],
    tail: [u32; 2],
    /// Random policy: the booked slot ids, densely packed
    /// (swap-remove victimhood), and each slot id's position in `dense`
    /// (`NIL` = not booked). Both empty for the queue policies.
    dense: Vec<u32>,
    pos: Vec<u32>,
    rng: Rng,
}

impl EvictionBook {
    /// A book over `slots` flow-table slot ids.
    fn new(policy: SketchEviction, slots: usize, seed: u64) -> Self {
        let random = policy == SketchEviction::Random;
        let unbooked = Node { prev: NIL, next: NIL, list: UNBOOKED };
        Self {
            policy,
            len: 0,
            nodes: if random { Vec::new() } else { vec![unbooked; slots] },
            head: [NIL; 2],
            tail: [NIL; 2],
            dense: Vec::new(),
            pos: if random { vec![NIL; slots] } else { Vec::new() },
            rng: Rng::seed_from_u64(seed),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, list } = self.nodes[i as usize];
        match prev {
            NIL => self.head[list as usize] = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail[list as usize] = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, i: u32, list: u8) {
        let t = self.tail[list as usize];
        self.nodes[i as usize] = Node { prev: t, next: NIL, list };
        match t {
            NIL => self.head[list as usize] = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail[list as usize] = i;
    }

    /// Records a flow freshly admitted into `slot`.
    fn insert(&mut self, slot: u32) {
        self.len += 1;
        if self.policy == SketchEviction::Random {
            self.pos[slot as usize] = self.dense.len() as u32;
            self.dense.push(slot);
            return;
        }
        debug_assert_eq!(self.nodes[slot as usize].list, UNBOOKED, "slot {slot} booked twice");
        self.push_tail(slot, 0);
    }

    /// The flow in `slot` was seen again (resident hit).
    fn touch(&mut self, slot: u32) {
        let list = match self.policy {
            SketchEviction::Fifo | SketchEviction::Random => return,
            SketchEviction::Lru => 0,
            // Any re-access lands the flow at the protected queue's LRU
            // tail.
            SketchEviction::TwoQ => 1,
        };
        self.unlink(slot);
        self.push_tail(slot, list);
    }

    /// Forgets the flow in `slot` (controller clear, or displacement by
    /// the table's own timeout/classified-evict reclaim).
    fn remove(&mut self, slot: u32) {
        self.len -= 1;
        if self.policy == SketchEviction::Random {
            let i = std::mem::replace(&mut self.pos[slot as usize], NIL) as usize;
            self.dense.swap_remove(i);
            if let Some(&moved) = self.dense.get(i) {
                self.pos[moved as usize] = i as u32;
            }
            return;
        }
        self.unlink(slot);
        self.nodes[slot as usize].list = UNBOOKED;
    }

    /// Picks and removes the policy's victim, returning its slot id.
    fn pop_victim(&mut self) -> Option<u32> {
        let slot = if self.policy == SketchEviction::Random {
            if self.dense.is_empty() {
                return None;
            }
            self.dense[self.rng.gen_range(0..self.dense.len())]
        } else {
            // 2Q prefers the probation queue; FIFO/LRU only have list 0.
            match self.head {
                [NIL, NIL] => return None,
                [NIL, h] | [h, _] => h,
            }
        };
        self.remove(slot);
        Some(slot)
    }
}

/// The sketch-assisted [`Admission`] hook: resident flows pass straight
/// through (refreshing their place in the eviction book); untracked flows
/// must get past the Bloom/count–min sketch and the byte budget before
/// they may claim a slot.
struct SketchAdmission {
    cfg: SketchedPipelineConfig,
    window_left: u64,
    max_tracked: usize,
    cms: CountMinSketch,
    bloom: BloomFilter,
    book: EvictionBook,
    promoted: u64,
    absorbed: u64,
    evicted: u64,
}

impl SketchAdmission {
    /// Promotion bar after pressure-adaptive tightening: the base
    /// threshold doubles once the flow table crosses the degraded-enter
    /// pressure and quadruples near saturation (≥ 900‰), demanding more
    /// repeat evidence per exact slot exactly when slots are scarcest.
    /// Inert in exact-parity mode (base ≤ 1 never consults the sketch).
    fn effective_promote_threshold(&self, pressure_milli: u32) -> u32 {
        let base = self.cfg.promote_threshold;
        if base <= 1 {
            return base;
        }
        let mult = if pressure_milli >= 900 {
            4
        } else if pressure_milli >= self.cfg.pipeline.overload.degrade_enter_milli {
            2
        } else {
            1
        };
        base.saturating_mul(mult)
    }

    /// One sketch observation of an untracked flow: returns true when the
    /// flow's (over-)estimated packet count reaches the promotion bar.
    fn sketch_admit(&mut self, key: &FiveTuple, state: &mut ShardState) -> bool {
        if self.window_left == 0 {
            self.cms.clear();
            self.bloom.clear();
            self.window_left = self.cfg.window_packets;
            counter!("switch.sketch.window_reset").inc();
        }
        self.window_left -= 1;
        let seen = self.bloom.insert(key);
        // First sighting is the implicit estimate 1; repeats go through
        // the CMS (whose count starts at the *second* packet, hence +1).
        let est = if seen { self.cms.increment(key).saturating_add(1) } else { 1 };
        let eff = self.effective_promote_threshold(state.flow.pressure_milli());
        if est >= self.cfg.promote_threshold && est < eff {
            // Would have been admitted at the calm threshold — rejected
            // only because pressure raised the bar.
            state.overload.admission_tightened += 1;
            counter!("switch.overload.admission_tightened").inc();
        }
        est >= eff
    }
}

impl Admission for SketchAdmission {
    fn observe(
        &mut self,
        state: &mut ShardState,
        key: FiveTuple,
        i1: u32,
        i2: u32,
        pkt: &Packet,
        tallies: &mut ObserveTallies,
    ) -> Option<InsertOutcome> {
        if let Some((out, slot)) =
            state.flow.observe_resident_prehashed(key, i1, i2, pkt, pkt.ts_ns, tallies)
        {
            self.book.touch(slot);
            return Some(out);
        }
        if self.cfg.promote_threshold > 1 {
            if !self.sketch_admit(&key, state) {
                // Absorbed: the sketch holds the flow's only state.
                self.absorbed += 1;
                return None;
            }
            self.promoted += 1;
        }
        let flow = &mut state.flow;
        // Budget: make room *before* claiming, so the tracked set never
        // exceeds the cap even transiently.
        while self.book.len() >= self.max_tracked {
            let Some(victim) = self.book.pop_victim() else { break };
            let released = flow.evict_slot(victim);
            debug_assert!(released, "eviction book out of sync with table");
            self.evicted += 1;
        }
        let (out, claim) = flow.admit_prehashed(key, i1, i2, pkt, pkt.ts_ns, tallies);
        match claim {
            SlotClaim::Fresh(slot) => self.book.insert(slot),
            SlotClaim::Displaced(slot) => {
                self.book.remove(slot);
                self.book.insert(slot);
            }
            SlotClaim::Unclaimed => {}
        }
        Some(out)
    }
}

/// The sketch-assisted [`DataPlane`] backend — see the module docs. An
/// exact [`Pipeline`] driven through the [`SketchAdmission`] hook.
pub struct SketchedPipeline {
    inner: Pipeline,
    admission: SketchAdmission,
}

impl SketchedPipeline {
    pub fn new(cfg: SketchedPipelineConfig, fl_rules: RuleSet, pl_rules: RuleSet) -> Self {
        assert!(cfg.window_packets >= 1, "sketch window must be at least one packet");
        let max_tracked =
            cfg.budget_bytes.map(|b| (b / FlowShard::slot_bytes()).max(1)).unwrap_or(usize::MAX);
        let inner = Pipeline::new(cfg.pipeline, fl_rules, pl_rules);
        let slots = inner.flow_table().capacity();
        let admission = SketchAdmission {
            window_left: cfg.window_packets,
            max_tracked,
            cms: CountMinSketch::new(cfg.cms_width, cfg.cms_depth, cfg.seed),
            bloom: BloomFilter::new(cfg.bloom_bits, cfg.bloom_hashes, cfg.seed ^ 0x9E37_79B9),
            book: EvictionBook::new(cfg.eviction, slots, cfg.seed.wrapping_add(1)),
            promoted: 0,
            absorbed: 0,
            evicted: 0,
            cfg,
        };
        Self { inner, admission }
    }

    pub fn config(&self) -> &SketchedPipelineConfig {
        &self.admission.cfg
    }

    /// Flows currently holding an exact slot.
    pub fn tracked(&self) -> usize {
        self.admission.book.len()
    }

    /// Installs one whitelist per intermediate phase boundary via the
    /// engine's hitless epoch flip (see [`Pipeline::set_phase_rulesets`]).
    pub fn set_phase_rulesets(&mut self, rulesets: &[RuleSet]) {
        self.inner.set_phase_rulesets(rulesets);
    }
}

impl DataPlane for SketchedPipeline {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<ProcessOutcome>) {
        let a = &mut self.admission;
        let before = (a.promoted, a.absorbed, a.evicted);
        self.inner.process_batch_with(a, pkts, out);
        if pkts.is_empty() {
            return;
        }
        // Event counters advance once per batch by their deltas.
        let flush = |n: u64, c: &'static iguard_telemetry::Counter| {
            if n > 0 {
                c.add(n);
            }
        };
        flush(a.promoted - before.0, counter!("switch.sketch.promoted"));
        flush(a.absorbed - before.1, counter!("switch.sketch.absorbed"));
        flush(a.evicted - before.2, counter!("switch.sketch.evicted"));
        let tracked = a.book.len();
        histogram!("switch.sketch.occupancy").record(tracked as u64);
        if tracked > 0 {
            let bytes = tracked * FlowShard::slot_bytes() + a.cms.bytes() + a.bloom.bytes();
            histogram!("switch.sketch.bytes_per_flow").record((bytes / tracked) as u64);
        }
    }

    fn drain_digests_into(&mut self, out: &mut Vec<Digest>) {
        self.inner.drain_digests_into(out);
    }

    fn drain_seq_digests_into(&mut self, out: &mut Vec<SeqDigest>) {
        self.inner.drain_seq_digests_into(out);
    }

    fn apply(&mut self, action: ControlAction) {
        match action {
            ControlAction::ClearFlow(five) => {
                if let Some(slot) = self.inner.state.flow.clear(&five) {
                    self.admission.book.remove(slot);
                }
            }
            other => self.inner.apply(other),
        }
    }

    fn apply_ruleset(&mut self, txn: &RulesetTxn) -> Result<(), SwitchError> {
        self.inner.apply_ruleset(txn)
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
        self.inner.resync_labeled_into(out);
    }

    fn counters(&self) -> PathCounters {
        self.inner.paths()
    }

    fn whitelist_counters(&self) -> WhitelistCounters {
        self.inner.whitelist_counters()
    }

    fn classify_batch(&mut self, rows: &Dataset, out: &mut Vec<bool>) {
        self.inner.classify_batch(rows, out);
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

    fn overload_stats(&self) -> OverloadStats {
        self.inner.overload_stats()
    }

    fn sketch_stats(&self) -> Option<SketchStats> {
        let a = &self.admission;
        Some(SketchStats {
            tracked: a.book.len(),
            max_tracked: a.max_tracked,
            resident_bytes: a.book.len() * FlowShard::slot_bytes(),
            budget_bytes: a.cfg.budget_bytes,
            sketch_bytes: a.cms.bytes() + a.bloom.bytes(),
            promoted: a.promoted,
            absorbed: a.absorbed,
            evicted: a.evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::testutil::accept_all;
    use crate::pipeline::PathTaken;
    use iguard_flow::five_tuple::PROTO_UDP;
    use iguard_flow::packet::TcpFlags;
    use iguard_flow::table::FlowTableConfig;

    impl EvictionBook {
        /// Every booked slot id: the dense vector, or both queues walked
        /// head to tail.
        fn slots(&self) -> Vec<u32> {
            if self.policy == SketchEviction::Random {
                return self.dense.clone();
            }
            let mut out = Vec::new();
            for list in 0..2 {
                let mut i = self.head[list];
                while i != NIL {
                    out.push(i);
                    i = self.nodes[i as usize].next;
                }
            }
            out
        }
    }

    fn pkt(flow: u16, ts_ms: u64) -> Packet {
        Packet {
            ts_ns: ts_ms * 1_000_000,
            five: FiveTuple::new(0x0A00_0001, 0xC0A8_0001, 10_000 + flow, 53, PROTO_UDP),
            wire_len: 100,
            ttl: 64,
            flags: TcpFlags::default(),
        }
    }

    fn sketchy(budget_flows: usize, threshold: u32, policy: SketchEviction) -> SketchedPipeline {
        let cfg = SketchedPipelineConfig::default()
            .with_budget_bytes(Some(budget_flows * FlowShard::slot_bytes()))
            .with_promote_threshold(threshold)
            .with_eviction(policy);
        SketchedPipeline::new(cfg, accept_all(13), accept_all(4))
    }

    #[test]
    fn first_packet_is_absorbed_then_promoted() {
        let mut dp = sketchy(64, 2, SketchEviction::Fifo);
        let mut out = Vec::new();
        dp.process_batch(&[pkt(1, 0)], &mut out);
        // First packet: sketch only, orange fallback, nothing tracked.
        assert_eq!(out[0].path, PathTaken::Orange);
        assert_eq!(dp.tracked(), 0);
        assert_eq!(dp.sketch_stats().unwrap().absorbed, 1);
        dp.process_batch(&[pkt(1, 1)], &mut out);
        // Second packet: estimate reaches 2 → promoted into an exact slot.
        assert_eq!(dp.tracked(), 1);
        assert_eq!(dp.sketch_stats().unwrap().promoted, 1);
        assert_eq!(out[0].path, PathTaken::Brown);
    }

    #[test]
    fn budget_is_never_exceeded() {
        for policy in [
            SketchEviction::Fifo,
            SketchEviction::Lru,
            SketchEviction::Random,
            SketchEviction::TwoQ,
        ] {
            let mut dp = sketchy(4, 1, policy);
            let mut out = Vec::new();
            for f in 0..64u16 {
                dp.process_batch(&[pkt(f, f as u64)], &mut out);
                assert!(dp.tracked() <= 4, "{policy:?} exceeded budget: {}", dp.tracked());
            }
            let st = dp.sketch_stats().unwrap();
            assert_eq!(st.tracked, 4);
            assert_eq!(st.evicted, 60);
            assert!(st.resident_bytes <= st.budget_bytes.unwrap());
        }
    }

    #[test]
    fn fifo_and_lru_pick_different_victims() {
        // Flows 0,1,2 admitted; flow 0 then re-accessed. A 4th admission
        // must evict flow 0 under FIFO but flow 1 under LRU.
        let drive = |policy| {
            let mut dp = sketchy(3, 1, policy);
            let mut out = Vec::new();
            for f in [0u16, 1, 2, 0] {
                dp.process_batch(&[pkt(f, 1)], &mut out);
            }
            dp.process_batch(&[pkt(3, 2)], &mut out);
            // The victim's flow restarts on its next packet (Early with
            // pkt_count 1 ⇒ it lost its slot); survivors continue.
            dp
        };
        let fifo = drive(SketchEviction::Fifo);
        let lru = drive(SketchEviction::Lru);
        // FIFO victim = flow 0 (oldest admit); its key is gone.
        assert!(!fifo.inner.flow_table().label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(fifo.inner.flow_table().label_of(&pkt(1, 0).five.canonical()).is_some());
        // LRU victim = flow 1 (flow 0 was refreshed).
        assert!(lru.inner.flow_table().label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(!lru.inner.flow_table().label_of(&pkt(1, 0).five.canonical()).is_some());
    }

    #[test]
    fn two_q_protects_reaccessed_flows() {
        let mut dp = sketchy(3, 1, SketchEviction::TwoQ);
        let mut out = Vec::new();
        // Admit 0,1,2; re-access 0 (promotes it to the protected queue).
        for f in [0u16, 1, 2, 0] {
            dp.process_batch(&[pkt(f, 1)], &mut out);
        }
        // Two new admissions evict from probation (1 then 2), never 0.
        for f in [3u16, 4] {
            dp.process_batch(&[pkt(f, 2)], &mut out);
        }
        assert!(dp.inner.flow_table().label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(!dp.inner.flow_table().label_of(&pkt(1, 0).five.canonical()).is_some());
        assert!(!dp.inner.flow_table().label_of(&pkt(2, 0).five.canonical()).is_some());
    }

    #[test]
    fn random_eviction_is_seeded_deterministic() {
        let run = |seed| {
            let cfg = SketchedPipelineConfig::default()
                .with_budget_bytes(Some(8 * FlowShard::slot_bytes()))
                .with_eviction(SketchEviction::Random)
                .with_seed(seed);
            let mut dp = SketchedPipeline::new(cfg, accept_all(13), accept_all(4));
            let mut out = Vec::new();
            for f in 0..200u16 {
                dp.process_batch(&[pkt(f, f as u64)], &mut out);
            }
            let mut slots = dp.admission.book.dense.clone();
            slots.sort_unstable();
            slots
        };
        assert_eq!(run(1), run(1), "same seed must evict the same victims");
        assert_ne!(run(1), run(2), "different seeds should diverge");
    }

    /// One step of a scripted run: a packet of `flow` after `gap_ms`, a
    /// controller clear of `flow`, or the end of a batch.
    #[derive(Clone, Copy)]
    enum Step {
        Packet { flow: u16, gap_ms: u64 },
        Clear(u16),
        EndBatch,
    }

    /// The book holds exactly the table's residents: as many nodes as
    /// resident slots, each on a distinct slot that holds a flow, and
    /// never more than the budget.
    fn assert_book_in_lockstep(dp: &SketchedPipeline, policy: SketchEviction) {
        let table = dp.inner.flow_table();
        let book = &dp.admission.book;
        let slots = book.slots();
        assert_eq!(book.len(), slots.len(), "{policy:?}: book length drifted from its lists");
        assert_eq!(book.len(), table.occupancy(), "{policy:?}: book and table residents differ");
        let mut seen = vec![false; table.capacity()];
        for &s in &slots {
            assert!(!std::mem::replace(&mut seen[s as usize], true), "{policy:?}: slot {s} twice");
            assert!(table.slot_is_resident(s), "{policy:?}: booked slot {s} is empty");
        }
        let st = dp.sketch_stats().unwrap();
        assert!(st.tracked <= st.max_tracked, "{policy:?}: over the flow cap");
        assert!(st.resident_bytes <= st.budget_bytes.unwrap(), "{policy:?}: over the byte budget");
    }

    iguard_runtime::proptest_lite! {
        /// The slot-indexed eviction book stays in lockstep with the flow
        /// table through every event that changes residency — sketch
        /// admissions, resident hits, controller clears, idle-timeout
        /// restarts, and displacement of timed-out or classified
        /// residents (`ReplacedClassified`) — under every policy. A tiny
        /// table, a short timeout and a packet threshold of 2–3 make all
        /// of them common; budgets range from one flow to above the
        /// table's capacity, so both budget eviction and the table's own
        /// displacement get exercised.
        fn eviction_book_tracks_table_residents(rng, cases = 24) {
            let slots_per_table = rng.gen_range(2usize..8);
            let ft = FlowTableConfig::default()
                .with_slots_per_table(slots_per_table)
                .with_pkt_threshold(rng.gen_range(2u64..4))
                .with_timeout_ns(50_000_000);
            let budget = rng.gen_range(1usize..2 * slots_per_table + 3);
            let promote = rng.gen_range(1u32..4);
            let flows = rng.gen_range(4u16..40);
            let script: Vec<Step> = (0..400)
                .map(|_| match rng.gen_range(0u32..100) {
                    0..=5 => Step::Clear(rng.gen_range(0..flows)),
                    6..=11 => Step::EndBatch,
                    _ => Step::Packet {
                        flow: rng.gen_range(0..flows),
                        gap_ms: if rng.gen_bool(0.05) { 100 } else { rng.gen_range(0u64..3) },
                    },
                })
                .chain([Step::EndBatch])
                .collect();
            for policy in
                [SketchEviction::Fifo, SketchEviction::Lru, SketchEviction::Random, SketchEviction::TwoQ]
            {
                let cfg = SketchedPipelineConfig::default()
                    .with_pipeline(PipelineConfig::from(ft))
                    .with_budget_bytes(Some(budget * FlowShard::slot_bytes()))
                    .with_promote_threshold(promote)
                    .with_eviction(policy);
                let mut dp = SketchedPipeline::new(cfg, accept_all(13), accept_all(4));
                let (mut ts_ms, mut batch, mut out) = (0u64, Vec::new(), Vec::new());
                for &step in &script {
                    match step {
                        Step::Packet { flow, gap_ms } => {
                            ts_ms += gap_ms;
                            batch.push(pkt(flow, ts_ms));
                        }
                        Step::Clear(flow) => {
                            dp.process_batch(&std::mem::take(&mut batch), &mut out);
                            dp.apply(ControlAction::ClearFlow(pkt(flow, 0).five));
                            assert_book_in_lockstep(&dp, policy);
                        }
                        Step::EndBatch => {
                            dp.process_batch(&std::mem::take(&mut batch), &mut out);
                            assert_book_in_lockstep(&dp, policy);
                        }
                    }
                }
            }
        }
    }
}
