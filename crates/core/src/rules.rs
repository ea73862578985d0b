//! Whitelist-rule generation (paper §3.2.3).
//!
//! The labelled forest is compiled into axis-aligned hypercubes on which
//! its vote is constant. The paper describes enumerating the cartesian
//! product of all leaf boundaries; we compute the same partition by
//! **adaptive region splitting** — recursively split a region only while
//! some tree's decision still straddles it — which emits each maximal
//! constant-vote region directly instead of enumerating grid cells that
//! would be merged again afterwards. The decomposition proceeds breadth
//! first so each frontier level resolves in parallel across the runtime
//! worker pool; the result is independent of worker count because split
//! order never affects the final partition. A region never re-walks a
//! tree from its root: it resumes each tree where its parent's walk
//! stopped. Adjacent same-label cubes are then greedily merged, and the
//! benign (label-0) cubes become the whitelist: anything matching no
//! whitelist rule is treated as malicious.

use iguard_iforest::tree::Node as IfNode;
use iguard_iforest::IsolationForest;
use iguard_runtime::{par, Dataset};
use iguard_telemetry::{counter, histogram, span};

use crate::forest::IGuardForest;
use crate::rule_index::RuleIndex;

/// An axis-aligned box `[lo, hi)` over the feature space.
#[derive(Clone, Debug, PartialEq)]
pub struct Hypercube {
    pub lo: Vec<f32>,
    pub hi: Vec<f32>,
}

impl Hypercube {
    /// Half-open membership test.
    pub fn contains(&self, x: &[f32]) -> bool {
        x.iter().zip(self.lo.iter().zip(&self.hi)).all(|(&v, (&lo, &hi))| v >= lo && v < hi)
    }

    /// Volume of the box (product of extents).
    pub fn volume(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(&lo, &hi)| (hi - lo).max(0.0) as f64).product()
    }

    fn dims(&self) -> usize {
        self.lo.len()
    }
}

/// Rule-generation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleGenError {
    /// The decomposition exceeded the region budget — the model is too
    /// fragmented to compile into a rule table of acceptable size.
    /// `reached` is the region count at the point the budget was blown,
    /// so callers can tell a near miss from a runaway decomposition.
    TooManyRegions { budget: usize, reached: usize },
    /// A model constructor was handed zero training rows. Feature bounds
    /// (and therefore rule hypercubes) are undefined on an empty set, so
    /// the caller gets a typed error instead of a library panic.
    EmptyTrainingSet,
}

impl std::fmt::Display for RuleGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleGenError::TooManyRegions { budget, reached } => {
                write!(
                    f,
                    "region decomposition exceeded budget of {budget}: reached {reached} regions"
                )
            }
            RuleGenError::EmptyTrainingSet => {
                write!(f, "empty training set: cannot derive feature bounds or rules")
            }
        }
    }
}

impl std::error::Error for RuleGenError {}

/// A compiled whitelist rule set.
#[derive(Clone, Debug)]
pub struct RuleSet {
    /// Global feature bounds the rules were compiled within.
    pub bounds: Vec<(f32, f32)>,
    /// Benign (label-0) regions, post-merge.
    pub whitelist: Vec<Hypercube>,
    /// Constant-vote regions found before dropping malicious ones and
    /// before merging (a fragmentation measure).
    pub total_regions: usize,
}

/// A region's constant verdict (`true` = malicious), or the first split
/// `(feature, split)` that straddles it.
type Resolution = Result<bool, (usize, f32)>;

/// How a frontier region resolves against an ensemble. The last argument
/// holds the region's per-tree resume cursors, which the resolver advances
/// in place to where each tree's walk stopped. `Sync` because frontier
/// levels of the decomposition resolve concurrently.
type Resolve<'a> = dyn Fn(&[f32], &[f32], &mut [u32]) -> Resolution + Sync + 'a;

impl RuleSet {
    /// Compiles a distilled [`IGuardForest`] into whitelist rules.
    ///
    /// The region's verdict is the *majority vote*, so the decomposition
    /// short-circuits: once enough trees have resolved that the remaining
    /// (straddled) trees cannot change the majority, the region is
    /// constant and need not be split further. This is what keeps the
    /// compilation tractable in 13 dimensions.
    pub fn from_iguard(forest: &IGuardForest, max_regions: usize) -> Result<Self, RuleGenError> {
        assert!(forest.is_distilled(), "distill the forest before compiling rules");
        assert!(
            forest.trees().iter().all(|t| t.n_nodes() < SETTLED as usize),
            "tree node ids must fit a resume cursor"
        );
        let resolve = iguard_resolver(forest);
        Self::compile(forest.bounds().to_vec(), forest.trees().len(), &resolve, max_regions)
    }

    /// Compiles a conventional [`IsolationForest`] (thresholded anomaly
    /// score) into whitelist rules — how HorusEye-style deployments install
    /// the baseline iForest in the data plane.
    ///
    /// Branch-and-bound: for each tree, the region's attainable path
    /// length is bounded by exploring both sides of straddled splits; if
    /// the resulting score interval lies entirely on one side of the
    /// threshold, the region's verdict is constant without further
    /// splitting. The bound explores subtrees below the first straddle, so
    /// there is no single node to resume from: regions carry no cursors
    /// and every tree is walked from its root.
    pub fn from_iforest(
        forest: &IsolationForest,
        bounds: &[(f32, f32)],
        max_regions: usize,
    ) -> Result<Self, RuleGenError> {
        let resolve = iforest_resolver(forest);
        Self::compile(bounds.to_vec(), 0, &resolve, max_regions)
    }

    /// The shared adaptive decomposition + merge pipeline; `cursor_width`
    /// is the number of resume cursors `resolve` keeps per region.
    fn compile(
        bounds: Vec<(f32, f32)>,
        cursor_width: usize,
        resolve: &Resolve<'_>,
        max_regions: usize,
    ) -> Result<Self, RuleGenError> {
        let (benign, total_regions) = span!("core.rules.decompose")
            .time(|| decompose(bounds.len(), cursor_width, resolve, max_regions))?;
        counter!("core.rules.regions").add(total_regions as u64);
        let whitelist = span!("core.rules.merge").time(|| benign.merge());
        counter!("core.rules.whitelist_rules").add(whitelist.len() as u64);
        Ok(Self { bounds, whitelist, total_regions })
    }

    /// Number of whitelist rules.
    pub fn len(&self) -> usize {
        self.whitelist.len()
    }

    pub fn is_empty(&self) -> bool {
        self.whitelist.is_empty()
    }

    /// Whether `x` matches a whitelist rule. No clamping: edge rules are
    /// unbounded, mirroring forest inference on out-of-range points.
    pub fn matches(&self, x: &[f32]) -> bool {
        self.whitelist.iter().any(|c| c.contains(x))
    }

    /// Index of the first whitelist cube containing `x` — the linear-scan
    /// reference the compiled [`RuleIndex`] must reproduce bit-for-bit.
    pub fn lookup(&self, x: &[f32]) -> Option<usize> {
        self.whitelist.iter().position(|c| c.contains(x))
    }

    /// Compiles the whitelist into a [`RuleIndex`] for sublinear
    /// first-match lookups.
    pub fn build_index(&self) -> RuleIndex {
        RuleIndex::build(self)
    }

    /// Hard prediction: malicious iff no whitelist rule matches.
    pub fn predict(&self, x: &[f32]) -> bool {
        !self.matches(x)
    }

    /// Batch predictions over the rows of `xs`, in parallel through the
    /// compiled index. Rows are processed in fixed-size chunks with one
    /// scratch buffer per chunk, so the output is byte-identical at any
    /// `IGUARD_WORKERS` setting — and, because the index agrees with the
    /// scan on every key, identical to mapping [`RuleSet::predict`] over
    /// the rows (cross-checked per row in debug builds).
    pub fn predictions(&self, xs: &Dataset) -> Vec<bool> {
        const CHUNK: usize = 1024;
        let n = xs.rows();
        if n == 0 {
            return Vec::new();
        }
        let index = self.build_index();
        let starts: Vec<usize> = (0..n).step_by(CHUNK).collect();
        let parts = par::par_map_vec(starts, |start| {
            let end = (start + CHUNK).min(n);
            let mut scratch = Vec::new();
            let mut out = Vec::with_capacity(end - start);
            for i in start..end {
                let hit = index.lookup(xs.row(i), &mut scratch);
                debug_assert_eq!(hit, self.lookup(xs.row(i)), "index/scan divergence at row {i}");
                out.push(hit.is_none());
            }
            out
        });
        parts.into_iter().flatten().collect()
    }

    /// Serialises the rule set to a line-oriented TSV document.
    ///
    /// `f32` values print through `Display`, whose shortest-round-trip
    /// output parses back to the identical bit pattern (infinities print
    /// as `inf`/`-inf`), so `from_tsv(to_tsv())` reproduces the rule set
    /// exactly — no binary encoding needed.
    pub fn to_tsv(&self) -> String {
        let dim = self.bounds.len();
        let mut out = String::new();
        out.push_str(&format!(
            "iguard-ruleset\tv1\t{}\t{}\t{}\n",
            dim,
            self.total_regions,
            self.whitelist.len()
        ));
        let push_vals = |out: &mut String, tag: &str, vals: &[f32]| {
            out.push_str(tag);
            for v in vals {
                out.push('\t');
                out.push_str(&v.to_string());
            }
            out.push('\n');
        };
        let (los, his): (Vec<f32>, Vec<f32>) = self.bounds.iter().copied().unzip();
        push_vals(&mut out, "bounds_lo", &los);
        push_vals(&mut out, "bounds_hi", &his);
        for cube in &self.whitelist {
            let mut line = cube.lo.clone();
            line.extend_from_slice(&cube.hi);
            push_vals(&mut out, "rule", &line);
        }
        out
    }

    /// Parses a document produced by [`RuleSet::to_tsv`].
    pub fn from_tsv(s: &str) -> Result<Self, String> {
        fn vals(fields: &[&str]) -> Result<Vec<f32>, String> {
            fields
                .iter()
                .map(|f| f.parse::<f32>().map_err(|e| format!("bad float {f:?}: {e}")))
                .collect()
        }
        let mut lines = s.lines();
        let header = lines.next().ok_or("empty document")?;
        let h: Vec<&str> = header.split('\t').collect();
        if h.len() != 5 || h[0] != "iguard-ruleset" || h[1] != "v1" {
            return Err(format!("bad header: {header:?}"));
        }
        let dim: usize = h[2].parse().map_err(|e| format!("bad dim: {e}"))?;
        let total_regions: usize = h[3].parse().map_err(|e| format!("bad total_regions: {e}"))?;
        let n_rules: usize = h[4].parse().map_err(|e| format!("bad rule count: {e}"))?;
        let mut expect = |tag: &str| -> Result<Vec<f32>, String> {
            let line = lines.next().ok_or_else(|| format!("missing {tag} line"))?;
            let f: Vec<&str> = line.split('\t').collect();
            if f.first() != Some(&tag) {
                return Err(format!("expected {tag} line, got {line:?}"));
            }
            vals(&f[1..])
        };
        let los = expect("bounds_lo")?;
        let his = expect("bounds_hi")?;
        if los.len() != dim || his.len() != dim {
            return Err("bounds width mismatch".into());
        }
        let bounds: Vec<(f32, f32)> = los.into_iter().zip(his).collect();
        let mut whitelist = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let line = expect("rule")?;
            if line.len() != 2 * dim {
                return Err(format!("rule width {} != 2*{dim}", line.len()));
            }
            whitelist.push(Hypercube { lo: line[..dim].to_vec(), hi: line[dim..].to_vec() });
        }
        Ok(Self { bounds, whitelist, total_regions })
    }
}

/// Cursor flag of a tree whose walk reached a leaf: the region lies in
/// that leaf, and so does every sub-region, so the cursor keeps the leaf's
/// vote (low bit: malicious) instead of its node. Node ids stay below it.
const SETTLED: u32 = 1 << 31;

/// The majority-vote resolver of a distilled forest: a region is constant
/// once the malicious votes of the trees it resolves in reach the vote
/// threshold, or can no longer reach it even if every straddled tree
/// voted malicious. Each tree resumes from the region's cursor for it.
fn iguard_resolver(
    forest: &IGuardForest,
) -> impl Fn(&[f32], &[f32], &mut [u32]) -> Resolution + Sync + '_ {
    let needed = forest.votes_needed();
    move |lo, hi, cursors| {
        let mut mal = 0usize;
        let mut unresolved = 0usize;
        let mut first_straddle: Option<(usize, f32)> = None;
        for (tree, cursor) in forest.trees().iter().zip(cursors) {
            if *cursor & SETTLED != 0 {
                mal += (*cursor & 1) as usize;
                continue;
            }
            match tree.resume_region(cursor, lo, hi) {
                Ok(leaf) => {
                    let label = tree.leaves[leaf].label.expect("undistilled leaf");
                    *cursor = SETTLED | u32::from(label);
                    mal += usize::from(label);
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

/// The thresholded-score resolver of a conventional iForest: a region is
/// constant once its attainable score interval lies on one side of the
/// threshold. It keeps no cursors.
fn iforest_resolver(
    forest: &IsolationForest,
) -> impl Fn(&[f32], &[f32], &mut [u32]) -> Resolution + Sync + '_ {
    move |lo, hi, _| {
        let mut path_min = 0.0f64;
        let mut path_max = 0.0f64;
        let mut first_straddle: Option<(usize, f32)> = None;
        for tree in forest.trees() {
            let b = iforest_path_bounds(tree.root(), lo, hi, 0, &mut first_straddle);
            path_min += b.0;
            path_max += b.1;
        }
        let n = forest.trees().len() as f64;
        // Score is decreasing in mean path length.
        let score_hi = 2f64.powf(-(path_min / n) / forest.c_psi());
        let score_lo = 2f64.powf(-(path_max / n) / forest.c_psi());
        if score_lo > forest.threshold() {
            return Ok(true);
        }
        if score_hi <= forest.threshold() {
            return Ok(false);
        }
        Err(first_straddle.expect("undetermined region must have a straddle"))
    }
}

/// Breadth-first adaptive decomposition of the whole feature space into
/// constant-vote regions. Returns the benign regions in the order they
/// resolved, and the count of all resolved regions.
///
/// The root region is **unbounded**: tree inference routes every point
/// (inside training bounds or not) to some leaf, so the rule table must
/// cover the whole feature space to be consistent with the forest. Edge
/// rules extend to ±∞ and are intersected with finite field domains only
/// when installed into a TCAM.
///
/// Every region of the current frontier resolves in parallel, then
/// straddled regions split into the next frontier. Both halves of a split
/// inherit the cursors their parent's resolution left behind.
fn decompose(
    dim: usize,
    cursor_width: usize,
    resolve: &Resolve<'_>,
    max_regions: usize,
) -> Result<(Boxes, usize), RuleGenError> {
    let mut frontier = Frontier::with_capacity(dim, cursor_width, 1);
    frontier.regions.push(&vec![f32::NEG_INFINITY; dim], &vec![f32::INFINITY; dim]);
    frontier.cursors.resize(cursor_width, 0);
    let mut benign = Boxes::with_capacity(dim, 0);
    let mut total_regions = 0usize;
    // A frontier wider than this cannot resolve within the budget.
    let frontier_cap = max_regions.saturating_mul(2);
    while frontier.regions.len > 0 {
        histogram!("core.rules.frontier_width").record(frontier.regions.len as u64);
        let resolved = frontier.resolve(resolve);
        let splits = resolved.iter().filter(|r| r.is_err()).count();
        let mut next = Frontier::with_capacity(dim, cursor_width, 2 * splits);
        for (i, resolution) in resolved.into_iter().enumerate() {
            let (lo, hi) = (frontier.regions.lo(i), frontier.regions.hi(i));
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
                        benign.push(lo, hi);
                    }
                }
                Err((feature, split)) => {
                    debug_assert!(
                        lo[feature] < split && split < hi[feature],
                        "straddle split must be interior"
                    );
                    let cursors = &frontier.cursors[i * cursor_width..][..cursor_width];
                    next.push_halves(lo, hi, cursors, feature, split);
                    if next.regions.len > frontier_cap {
                        return Err(RuleGenError::TooManyRegions {
                            budget: max_regions,
                            reached: total_regions + next.regions.len,
                        });
                    }
                }
            }
        }
        frontier = next;
    }
    Ok((benign, total_regions))
}

/// One breadth-first level of the decomposition: the regions, and per
/// region `cursor_width` resume cursors (`cursors[i * cursor_width..]`).
struct Frontier {
    regions: Boxes,
    cursor_width: usize,
    cursors: Vec<u32>,
}

impl Frontier {
    fn with_capacity(dim: usize, cursor_width: usize, regions: usize) -> Self {
        Self {
            regions: Boxes::with_capacity(dim, regions),
            cursor_width,
            cursors: Vec::with_capacity(regions * cursor_width),
        }
    }

    /// Resolves every region in parallel, advancing its cursors in place.
    /// Each region's resolution depends on that region alone, so the
    /// result is independent of the worker count.
    fn resolve(&mut self, resolve: &Resolve<'_>) -> Vec<Resolution> {
        let mut slots: Vec<&mut [u32]> = Vec::with_capacity(self.regions.len);
        let mut rest = self.cursors.as_mut_slice();
        for _ in 0..self.regions.len {
            let (slot, tail) = std::mem::take(&mut rest).split_at_mut(self.cursor_width);
            slots.push(slot);
            rest = tail;
        }
        let regions = &self.regions;
        par::par_map_mut(&mut slots, |i, cursors| resolve(regions.lo(i), regions.hi(i), cursors))
    }

    /// Appends the halves of `[lo, hi)` below and above `split` on
    /// `feature`, both resuming from `cursors`.
    fn push_halves(&mut self, lo: &[f32], hi: &[f32], cursors: &[u32], feature: usize, split: f32) {
        let k = self.regions.len * self.regions.dim + feature;
        self.regions.push(lo, hi);
        self.regions.hi[k] = split;
        self.regions.push(lo, hi);
        self.regions.lo[k + self.regions.dim] = split;
        self.cursors.extend_from_slice(cursors);
        self.cursors.extend_from_slice(cursors);
    }
}

/// Bounds on the path length a point inside region `[lo, hi)` can attain
/// in a conventional iTree. Straddled splits explore both children; the
/// first straddle encountered is recorded for region splitting.
fn iforest_path_bounds(
    node: &IfNode,
    lo: &[f32],
    hi: &[f32],
    depth: usize,
    first_straddle: &mut Option<(usize, f32)>,
) -> (f64, f64) {
    match node {
        IfNode::Leaf { size } => {
            let p = depth as f64 + iguard_iforest::tree::average_path_length(*size);
            (p, p)
        }
        IfNode::Internal { feature, split, left, right } => {
            if hi[*feature] <= *split {
                iforest_path_bounds(left, lo, hi, depth + 1, first_straddle)
            } else if lo[*feature] >= *split {
                iforest_path_bounds(right, lo, hi, depth + 1, first_straddle)
            } else {
                first_straddle.get_or_insert((*feature, *split));
                let l = iforest_path_bounds(left, lo, hi, depth + 1, first_straddle);
                let r = iforest_path_bounds(right, lo, hi, depth + 1, first_straddle);
                (l.0.min(r.0), l.1.max(r.1))
            }
        }
    }
}

/// Greedy merging of adjacent same-label boxes: two boxes merge when they
/// agree on every dimension except one where they abut exactly. Runs to a
/// fixpoint over all axes.
///
/// Each pass steps through the axes; step `d` groups the boxes by the bit
/// patterns of their bounds on every *other* axis, orders each group by
/// `lo[d]` (`f32::total_cmp`), and coalesces runs in which each box's
/// `hi[d]` equals (`==`) the next box's `lo[d]`. Grouping is by bit
/// pattern while abutting is by `==`: `-0.0` and `0.0` bounds on another
/// axis keep two boxes apart, but a box ending at `-0.0` abuts one
/// starting at `0.0`. A NaN bound never abuts anything. The output is
/// ordered by (other-axis bit patterns for the last axis, `lo` of the last
/// axis); for pairwise-disjoint boxes, such as a decomposition's regions,
/// it does not depend on the input order.
pub fn merge_adjacent(cubes: Vec<Hypercube>) -> Vec<Hypercube> {
    let Some(first) = cubes.first() else {
        return cubes;
    };
    let mut boxes = Boxes::with_capacity(first.dims(), cubes.len());
    for cube in &cubes {
        boxes.push(&cube.lo, &cube.hi);
    }
    boxes.merge()
}

/// Boxes in flat arenas: box `i` spans `[lo, hi)` with
/// `lo = self.lo[i * dim..][..dim]`, likewise `hi`.
struct Boxes {
    dim: usize,
    len: usize,
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl Boxes {
    fn with_capacity(dim: usize, boxes: usize) -> Self {
        let (lo, hi) = (Vec::with_capacity(boxes * dim), Vec::with_capacity(boxes * dim));
        Self { dim, len: 0, lo, hi }
    }

    fn push(&mut self, lo: &[f32], hi: &[f32]) {
        debug_assert!(lo.len() == self.dim && hi.len() == self.dim, "box width mismatch");
        self.lo.extend_from_slice(lo);
        self.hi.extend_from_slice(hi);
        self.len += 1;
    }

    fn lo(&self, i: usize) -> &[f32] {
        &self.lo[i * self.dim..][..self.dim]
    }

    fn hi(&self, i: usize) -> &[f32] {
        &self.hi[i * self.dim..][..self.dim]
    }

    /// Whether boxes `a` and `b` have bit-identical bounds on every axis
    /// but `skip`.
    fn same_off_axis(&self, a: usize, b: usize, skip: usize) -> bool {
        let (ka, kb) = (a * self.dim, b * self.dim);
        (0..self.dim).all(|x| {
            x == skip
                || (self.lo[ka + x].to_bits() == self.lo[kb + x].to_bits()
                    && self.hi[ka + x].to_bits() == self.hi[kb + x].to_bits())
        })
    }

    /// Lexicographic order of the bit patterns `(lo, hi)` of boxes `a` and
    /// `b` on every axis but `skip`.
    fn cmp_off_axis(&self, a: usize, b: usize, skip: usize) -> std::cmp::Ordering {
        let (ka, kb) = (a * self.dim, b * self.dim);
        (0..self.dim)
            .filter(|&x| x != skip)
            .map(|x| {
                let lo = self.lo[ka + x].to_bits().cmp(&self.lo[kb + x].to_bits());
                lo.then_with(|| self.hi[ka + x].to_bits().cmp(&self.hi[kb + x].to_bits()))
            })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    /// [`merge_adjacent`] on flat boxes, with no allocation per box.
    fn merge(self) -> Vec<Hypercube> {
        if self.len == 0 {
            return Vec::new();
        }
        let dim = self.dim;
        let mut merge = Merge::new(self);
        loop {
            counter!("core.rules.merge_pass").inc();
            let mut merged_any = false;
            for d in 0..dim {
                merged_any |= merge.step(d);
            }
            if !merged_any {
                break;
            }
        }
        merge.finish()
    }
}

/// Working state of [`Boxes::merge`].
///
/// Each box carries the XOR of [`axis_hash`] over all its axes, so its
/// other-axis hash for step `d` is one [`axis_hash`] away. A step buckets
/// the boxes by that hash in an open-addressing table, verifies that equal
/// hashes mean bit-identical other-axis bounds (sorting a colliding bucket
/// by the exact bits), orders each group by `lo[d]` and coalesces it in one
/// sweep.
///
/// Box order never reaches the result. Which boxes a step merges depends
/// only on the set of boxes: groups are defined by bits and ordered by
/// `lo[d]`, and boxes of one group never share `lo[d]` when they are
/// disjoint. So every step leaves the same set of boxes as the key-sorted
/// step it replaces, every pass merges the same boxes, and the fixpoint
/// runs the same number of passes. The last pass merges nothing, so the
/// key-sorted code left its boxes sorted by (other-axis bits for the last
/// axis, `lo` of the last axis); [`Merge::finish`] sorts by exactly that.
struct Merge {
    boxes: Boxes,
    row_hash: Vec<u64>,
    /// Open-addressing table of bucket ids, `u32::MAX` = empty.
    slots: Vec<u32>,
    /// Per bucket: its hash, then its end offset in `members`.
    buckets: Vec<(u64, u32)>,
    /// Bucket id of each box.
    bucket_of: Vec<u32>,
    /// Box indices laid out bucket by bucket.
    members: Vec<u32>,
    dead: Vec<bool>,
}

impl Merge {
    fn new(boxes: Boxes) -> Self {
        let dim = boxes.dim;
        let row_hash = (0..boxes.len)
            .map(|i| {
                let (lo, hi) = (boxes.lo(i), boxes.hi(i));
                (0..dim).fold(0, |h, x| h ^ axis_hash(x, lo[x], hi[x]))
            })
            .collect();
        Self {
            boxes,
            row_hash,
            slots: Vec::new(),
            buckets: Vec::new(),
            bucket_of: Vec::new(),
            members: Vec::new(),
            dead: Vec::new(),
        }
    }

    /// Merges abutting boxes along axis `d`; returns whether any merged.
    fn step(&mut self, d: usize) -> bool {
        let Self { boxes, row_hash, slots, buckets, bucket_of, members, dead } = self;
        let (dim, n) = (boxes.dim, boxes.len);
        let mask = (2 * n).next_power_of_two() - 1;
        slots.clear();
        slots.resize(mask + 1, u32::MAX);
        buckets.clear();
        bucket_of.clear();
        for (i, &row) in row_hash.iter().enumerate() {
            let k = i * dim + d;
            let hash = row ^ axis_hash(d, boxes.lo[k], boxes.hi[k]);
            let mut slot = hash as usize & mask;
            let b = loop {
                match slots[slot] {
                    u32::MAX => {
                        slots[slot] = buckets.len() as u32;
                        buckets.push((hash, 0));
                        break buckets.len() - 1;
                    }
                    b if buckets[b as usize].0 == hash => break b as usize,
                    _ => slot = (slot + 1) & mask,
                }
            };
            buckets[b].1 += 1;
            bucket_of.push(b as u32);
        }
        // Counting sort: sizes become start offsets, then end offsets.
        let mut start = 0;
        for bucket in buckets.iter_mut() {
            (start, bucket.1) = (start + bucket.1, start);
        }
        members.clear();
        members.resize(n, 0);
        for (i, &b) in bucket_of.iter().enumerate() {
            let end = &mut buckets[b as usize].1;
            members[*end as usize] = i as u32;
            *end += 1;
        }
        dead.clear();
        dead.resize(n, false);
        let mut merged = false;
        let mut start = 0;
        for &(_, end) in buckets.iter() {
            let bucket = &mut members[start..end as usize];
            start = end as usize;
            if bucket.len() < 2 {
                continue;
            }
            let lo_of = |j: u32| total_key(boxes.lo[j as usize * dim + d]);
            let head = bucket[0] as usize;
            if bucket.iter().all(|&j| boxes.same_off_axis(head, j as usize, d)) {
                bucket.sort_unstable_by_key(|&j| (lo_of(j), j));
            } else {
                bucket.sort_unstable_by(|&a, &b| {
                    boxes
                        .cmp_off_axis(a as usize, b as usize, d)
                        .then(lo_of(a).cmp(&lo_of(b)))
                        .then(a.cmp(&b))
                });
            }
            // Sweep each group: a box absorbs every later box it abuts.
            let mut keep = bucket[0] as usize;
            for &next in &bucket[1..] {
                let next = next as usize;
                let (kd, nd) = (keep * dim + d, next * dim + d);
                if !boxes.same_off_axis(keep, next, d) || boxes.hi[kd] != boxes.lo[nd] {
                    keep = next;
                    continue;
                }
                let lo = boxes.lo[kd];
                row_hash[keep] ^= axis_hash(d, lo, boxes.hi[kd]) ^ axis_hash(d, lo, boxes.hi[nd]);
                boxes.hi[kd] = boxes.hi[nd];
                dead[next] = true;
                merged = true;
            }
        }
        if !merged {
            return false;
        }
        // Drop the absorbed boxes, keeping the rest in order.
        let mut kept = 0;
        for i in (0..n).filter(|&i| !dead[i]) {
            boxes.lo.copy_within(i * dim..(i + 1) * dim, kept * dim);
            boxes.hi.copy_within(i * dim..(i + 1) * dim, kept * dim);
            row_hash[kept] = row_hash[i];
            kept += 1;
        }
        boxes.len = kept;
        boxes.lo.truncate(kept * dim);
        boxes.hi.truncate(kept * dim);
        row_hash.truncate(kept);
        true
    }

    /// The merged boxes, sorted by (other-axis bits for the last axis,
    /// `lo` of the last axis).
    fn finish(self) -> Vec<Hypercube> {
        let Self { boxes, .. } = self;
        let dim = boxes.dim;
        let mut out: Vec<usize> = (0..boxes.len).collect();
        if let Some(last) = dim.checked_sub(1) {
            out.sort_by(|&a, &b| {
                boxes
                    .cmp_off_axis(a, b, last)
                    .then_with(|| boxes.lo[a * dim + last].total_cmp(&boxes.lo[b * dim + last]))
            });
        }
        out.into_iter()
            .map(|i| Hypercube { lo: boxes.lo(i).to_vec(), hi: boxes.hi(i).to_vec() })
            .collect()
    }
}

/// 64-bit hash of one axis's bound bit patterns (splitmix64 finaliser,
/// salted by the axis).
fn axis_hash(axis: usize, lo: f32, hi: f32) -> u64 {
    #[cfg(test)]
    if differential::COLLIDING_HASH.get() {
        // Two values in all, so most buckets mix several groups.
        return u64::from((lo.to_bits() ^ hi.to_bits()) & 1);
    }
    let bits = (u64::from(lo.to_bits()) << 32) | u64::from(hi.to_bits());
    let mut z = bits ^ (axis as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An integer whose order is `f32::total_cmp`'s.
fn total_key(x: f32) -> i32 {
    let bits = x.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::IGuardConfig;
    use crate::teacher::OracleTeacher;
    use iguard_runtime::rng::Rng;

    fn cube(lo: &[f32], hi: &[f32]) -> Hypercube {
        Hypercube { lo: lo.to_vec(), hi: hi.to_vec() }
    }

    fn uniform2(n: usize, rng: &mut Rng) -> Dataset {
        let mut d = Dataset::new(2);
        for _ in 0..n {
            d.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        d
    }

    #[test]
    fn merge_adjacent_survives_nan_bounds() {
        // A NaN bound must not panic the merge sort — NaN cubes sort last
        // under `total_cmp` and simply fail to merge with anything.
        let cubes = vec![
            cube(&[0.0, 0.0], &[0.5, 1.0]),
            cube(&[f32::NAN, 0.0], &[1.0, 1.0]),
            cube(&[0.5, 0.0], &[1.0, 1.0]),
        ];
        let merged = merge_adjacent(cubes);
        assert_eq!(merged.len(), 2, "finite pair merges, NaN cube survives");
    }

    #[test]
    fn contains_is_half_open() {
        let c = cube(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(c.contains(&[0.0, 0.5]));
        assert!(!c.contains(&[1.0, 0.5]));
        assert!(!c.contains(&[0.5, -0.1]));
    }

    #[test]
    fn merge_abutting_boxes() {
        let merged =
            merge_adjacent(vec![cube(&[0.0, 0.0], &[0.5, 1.0]), cube(&[0.5, 0.0], &[1.0, 1.0])]);
        assert_eq!(merged, vec![cube(&[0.0, 0.0], &[1.0, 1.0])]);
    }

    #[test]
    fn merge_is_transitive_across_passes() {
        // Three boxes in a row merge into one (needs a second pass).
        let merged =
            merge_adjacent(vec![cube(&[0.0], &[1.0]), cube(&[2.0], &[3.0]), cube(&[1.0], &[2.0])]);
        assert_eq!(merged, vec![cube(&[0.0], &[3.0])]);
    }

    #[test]
    fn no_merge_across_gap_or_two_axes() {
        let gap = merge_adjacent(vec![cube(&[0.0], &[1.0]), cube(&[1.5], &[2.0])]);
        assert_eq!(gap.len(), 2);
        let diag =
            merge_adjacent(vec![cube(&[0.0, 0.0], &[1.0, 1.0]), cube(&[1.0, 1.0], &[2.0, 2.0])]);
        assert_eq!(diag.len(), 2);
    }

    fn trained_forest(rng: &mut Rng) -> (IGuardForest, Dataset) {
        let data = uniform2(512, rng);
        let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.6);
        let cfg = IGuardConfig { n_trees: 7, subsample: 128, k_augment: 32, ..Default::default() };
        let mut forest = IGuardForest::fit(&data, &teacher, &cfg, rng);
        forest.distill(&data, &teacher, 16, rng);
        (forest, data)
    }

    /// The paper's consistency check: rules reproduce the distilled forest.
    #[test]
    fn rules_are_consistent_with_forest() {
        let mut rng = Rng::seed_from_u64(1);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        let mut agree = 0usize;
        let n = 1000;
        for _ in 0..n {
            let x = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            if rules.predict(&x) == forest.predict(&x) {
                agree += 1;
            }
        }
        let c = agree as f64 / n as f64;
        assert!(c >= 0.99, "consistency {c} below paper's 0.992–0.996 band");
    }

    #[test]
    fn whitelist_covers_benign_side() {
        let mut rng = Rng::seed_from_u64(2);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        assert!(!rules.is_empty());
        assert!(rules.matches(&[0.2, 0.5]), "benign point must match whitelist");
        assert!(rules.predict(&[0.9, 0.5]), "malicious point must not match");
    }

    #[test]
    fn out_of_range_points_follow_forest_semantics() {
        let mut rng = Rng::seed_from_u64(3);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        // Edge rules are unbounded: far outside the training bounds the
        // verdict matches the forest's own leaf routing.
        for x in [[-100.0f32, 0.5], [100.0, 0.5], [0.5, 1e9], [0.5, -1e9]] {
            assert_eq!(rules.predict(&x), forest.predict(&x), "x = {x:?}");
        }
    }

    #[test]
    fn budget_violation_reported() {
        let mut rng = Rng::seed_from_u64(4);
        let (forest, _) = trained_forest(&mut rng);
        match RuleSet::from_iguard(&forest, 1) {
            Err(err @ RuleGenError::TooManyRegions { budget: 1, reached }) => {
                assert!(reached > 1, "reached ({reached}) must exceed the budget of 1");
                let msg = err.to_string();
                assert!(
                    msg.contains("budget of 1") && msg.contains(&format!("reached {reached}")),
                    "error message must name budget and reached count: {msg:?}"
                );
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    /// Budgets past `usize::MAX / 2` must not overflow the frontier cap:
    /// doubling them used to panic in debug builds and, in release
    /// builds, wrap to a cap near 0 that failed the compile.
    #[test]
    fn huge_budgets_compile_like_any_sufficient_budget() {
        let mut rng = Rng::seed_from_u64(10);
        let (forest, _) = trained_forest(&mut rng);
        let expect = RuleSet::from_iguard(&forest, 100_000).unwrap();
        for budget in [usize::MAX, usize::MAX / 2 + 1] {
            let rules = RuleSet::from_iguard(&forest, budget).unwrap();
            assert_eq!(rules.whitelist, expect.whitelist, "budget {budget}");
            assert_eq!(rules.total_regions, expect.total_regions, "budget {budget}");
        }
    }

    #[test]
    fn iforest_rules_flag_outliers() {
        let mut rng = Rng::seed_from_u64(5);
        let mut data = Dataset::new(2);
        for _ in 0..512 {
            data.push_row(&[0.5 + rng.gen_range(-0.1..0.1), 0.5 + rng.gen_range(-0.1..0.1)]);
        }
        let cfg = iguard_iforest::IsolationForestConfig {
            n_trees: 10,
            subsample: 64,
            contamination: 0.05,
        };
        let forest = IsolationForest::fit(&data, &cfg, &mut rng);
        let bounds = vec![(0.0f32, 1.0), (0.0, 1.0)];
        let rules = RuleSet::from_iforest(&forest, &bounds, 500_000).unwrap();
        // Consistency with the thresholded forest on in-bounds points.
        let mut agree = 0;
        for _ in 0..500 {
            let x = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            if rules.predict(&x) == forest.predict(&x) {
                agree += 1;
            }
        }
        assert!(agree >= 495, "iforest rule consistency {agree}/500");
    }

    #[test]
    fn decomposition_partitions_space() {
        // Regions (kept + dropped) must tile the bounds: check by sampling
        // that exactly one benign box contains any benign-predicted point.
        let mut rng = Rng::seed_from_u64(6);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        for _ in 0..300 {
            let x = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let hits = rules.whitelist.iter().filter(|c| c.contains(&x)).count();
            assert!(hits <= 1, "point {x:?} in {hits} merged boxes");
        }
    }

    /// The compiled index returns the identical rule as the linear scan on
    /// a trained whitelist, and batch `predictions` (which run through the
    /// index) equal per-point `predict` at any worker count.
    #[test]
    fn index_and_predictions_agree_with_linear_scan() {
        use iguard_runtime::par::with_workers;
        let mut rng = Rng::seed_from_u64(9);
        let (forest, data) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        let index = rules.build_index();
        let mut scratch = Vec::new();
        for _ in 0..1000 {
            let x = vec![rng.gen_range(-0.5..1.5) as f32, rng.gen_range(-0.5..1.5) as f32];
            assert_eq!(index.lookup(&x, &mut scratch), rules.lookup(&x), "x = {x:?}");
        }
        let expect: Vec<bool> = (0..data.rows()).map(|i| rules.predict(data.row(i))).collect();
        for workers in [1, 2, 8] {
            let got = with_workers(workers, || rules.predictions(&data));
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    /// Same seed ⇒ identical whitelist regardless of worker count.
    #[test]
    fn compilation_identical_at_any_worker_count() {
        use iguard_runtime::par::with_workers;
        let mut rng = Rng::seed_from_u64(7);
        let (forest, _) = trained_forest(&mut rng);
        let run = |workers: usize| {
            with_workers(workers, || RuleSet::from_iguard(&forest, 100_000).unwrap())
        };
        let serial = run(1);
        for workers in [2, 8] {
            let r = run(workers);
            assert_eq!(serial.whitelist, r.whitelist, "workers = {workers}");
            assert_eq!(serial.total_regions, r.total_regions);
        }
    }

    /// TSV round trip is exact, including unbounded edge rules.
    #[test]
    fn tsv_round_trip_is_exact() {
        let mut rng = Rng::seed_from_u64(8);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        assert!(rules.whitelist.iter().any(|c| c.lo.iter().any(|v| v.is_infinite())));
        let back = RuleSet::from_tsv(&rules.to_tsv()).unwrap();
        assert_eq!(rules.bounds, back.bounds);
        assert_eq!(rules.whitelist, back.whitelist);
        assert_eq!(rules.total_regions, back.total_regions);
    }

    #[test]
    fn tsv_rejects_corrupt_input() {
        assert!(RuleSet::from_tsv("").is_err());
        assert!(RuleSet::from_tsv("not-a-ruleset\tv1\t2\t0\t0").is_err());
        assert!(RuleSet::from_tsv(
            "iguard-ruleset\tv1\t2\t5\t1\nbounds_lo\t0\t0\nbounds_hi\t1\t1\nrule\t0\t0\t1"
        )
        .is_err());
    }
}
