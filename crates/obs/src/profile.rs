//! Offline analysis: the span forest of a JSONL trace, and per-stage
//! attribution over registry snapshots.
//!
//! The registry's [`Snapshot`] is the one per-stage aggregate: it records
//! every span whether or not a trace sink is installed or sampling drops
//! the span's tree. This module reads it two ways:
//!
//! * **cache efficacy** ([`cache_efficacy`]) — L1/L2/L3 hit/miss/evict
//!   counters joined with the spans that price a miss, estimating the
//!   time each cache level saved;
//! * **per-stage attribution** ([`diff`]) — every stage's self time per
//!   evaluated sweep point in two snapshots, ranked by how much it moved.
//!
//! A JSONL trace (see [`crate::trace`]) adds what a snapshot cannot hold:
//! span lineage. Its `begin`/`span` events carry `span`/`parent`/`thread`
//! fields, and [`Profile::from_trace`] rebuilds the span forest from those
//! links into folded call paths (`root;child;leaf`), rendered by
//! [`Profile::to_folded`] for speedscope/inferno flamegraphs.
//!
//! Stacks aggregate over *names*, never span ids, threads or absolute
//! timestamps, and every map is ordered — so under
//! [`LogicalClock`](crate::clock::LogicalClock) the folded stacks of a
//! sweep are a pure function of the code path: bit-identical across
//! worker-thread counts.

use std::collections::BTreeMap;

use crate::registry::Snapshot;
use crate::trace::TraceEvent;

/// Parent chains longer than this are treated as broken (a corrupt trace
/// could otherwise loop forever).
const MAX_STACK_DEPTH: usize = 64;

/// The span forest of one trace, folded into call paths.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    /// Parsed event lines of any kind.
    pub events: u64,
    /// Lines that failed to parse (e.g. a torn tail write).
    pub skipped_lines: u64,
    /// Closed spans whose parent chain dangled — the referenced parent
    /// never appeared in the trace (truncation) or the chain exceeded 64
    /// levels. Their stack roots where the chain broke.
    pub orphans: u64,
    /// Summed self time (ns) per folded call path (`root;child;leaf`),
    /// path-ordered — the flamegraph weights.
    pub stacks: BTreeMap<String, u64>,
}

fn field_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.get(key)?.as_u64()
}

/// Span lineage learned so far. Span names are interned so a
/// million-event trace holds each name once.
#[derive(Debug, Default)]
struct Forest {
    names: Vec<String>,
    name_ix: BTreeMap<String, u32>,
    /// span id → (name index, parent id), learned from `begin` and `span`
    /// events alike so an end event can resolve ancestors whose own end
    /// has not been seen yet.
    lineage: BTreeMap<u64, (u32, Option<u64>)>,
    stacks: BTreeMap<Vec<u32>, u64>,
    orphans: u64,
}

impl Forest {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&ix) = self.name_ix.get(name) {
            return ix;
        }
        let ix = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ix.insert(name.to_string(), ix);
        ix
    }

    fn add_event(&mut self, ev: &TraceEvent) {
        let is_end = match ev.kind.as_str() {
            "begin" => false,
            "span" => true,
            _ => return,
        };
        let nix = self.intern(&ev.name);
        let parent = field_u64(ev, "parent");
        if let Some(id) = field_u64(ev, "span") {
            self.lineage.insert(id, (nix, parent));
        }
        let Some(total_ns) = field_u64(ev, "total_ns").filter(|_| is_end) else {
            return;
        };
        let self_ns = field_u64(ev, "self_ns").unwrap_or(total_ns);
        // Walk the parent chain to the root (leaf-first, then reversed).
        let mut path = vec![nix];
        let mut cursor = parent;
        while let Some(p) = cursor {
            if path.len() > MAX_STACK_DEPTH {
                self.orphans += 1;
                break;
            }
            match self.lineage.get(&p) {
                Some(&(pn, pp)) => {
                    path.push(pn);
                    cursor = pp;
                }
                None => {
                    self.orphans += 1;
                    break;
                }
            }
        }
        path.reverse();
        let weight = self.stacks.entry(path).or_default();
        *weight = weight.saturating_add(self_ns);
    }
}

impl Profile {
    /// Rebuilds the span forest from the full text of a JSONL trace. Blank
    /// lines are ignored; unparseable ones are counted in
    /// [`Profile::skipped_lines`].
    #[must_use]
    pub fn from_trace(text: &str) -> Profile {
        let mut forest = Forest::default();
        let (mut events, mut skipped_lines) = (0, 0);
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            match TraceEvent::parse(line) {
                Some(ev) => {
                    events += 1;
                    forest.add_event(&ev);
                }
                None => skipped_lines += 1,
            }
        }
        let names = &forest.names;
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for (path, self_ns) in forest.stacks {
            let key = path
                .iter()
                .map(|&ix| names.get(ix as usize).map_or("", String::as_str))
                .collect::<Vec<_>>()
                .join(";");
            let merged = stacks.entry(key).or_default();
            *merged = merged.saturating_add(self_ns);
        }
        Profile {
            events,
            skipped_lines,
            orphans: forest.orphans,
            stacks,
        }
    }

    /// Renders the folded-stack flamegraph text: one
    /// `root;child;leaf weight` line per call path, weighted by summed
    /// self time in nanoseconds. The format is consumed directly by
    /// inferno (`inferno-flamegraph`) and speedscope.
    #[must_use]
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (path, self_ns) in &self.stacks {
            out.push_str(&format!("{path} {self_ns}\n"));
        }
        out
    }
}

/// One cache level's observed traffic joined with the span durations
/// that price what its hits avoided.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLevelReport {
    /// Level identifier, e.g. `"l3.analog"`.
    pub level: &'static str,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Capacity evictions (0 for unbounded levels).
    pub evictions: u64,
    /// Estimated cost one miss pays (ns), from the level's rebuild
    /// span(s); `None` when the snapshot holds no span to price it with.
    pub est_miss_cost_ns: Option<f64>,
    /// `hits x est_miss_cost_ns` — estimated time the level saved (ns).
    pub est_saved_ns: Option<f64>,
}

/// Joins a snapshot's cache counters with its span durations into
/// per-level time-saved estimates. Every level is a [`crate::Store`]
/// counting `<namespace>.{hit,miss,evict}`; levels with zero traffic are
/// omitted.
///
/// Pricing rules (all estimates, not measurements):
///
/// * **L1** (`cache.l1.*`, whole-point result cache) — a hit skips one
///   full evaluation, priced as
///   `(Σ stage.simulate + Σ stage.detect) / sweep.evaluations`.
/// * **L2 dict** (`memo.dict.*`) — a hit skips the Gram/AᵀA dictionary
///   build, priced as the mean `recon.gram` span.
/// * **L3 analog / reference / sampled / encoded** (`memo.<class>.*`) — a
///   hit skips the class rebuild, priced by the mean `sim.analog.build`,
///   `sim.reference.build`, `sim.sample.build` or `sim.encode.build` span.
/// * Levels without a dedicated rebuild span (l2.srbm, l2.detector,
///   l3.ct) report counters only (`est_* = None`).
#[must_use]
pub fn cache_efficacy(snap: &Snapshot) -> Vec<CacheLevelReport> {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let total = |name: &str| snap.span(name).map_or(0, |s| s.total_ns);
    let mean = |name: &str| {
        snap.span(name)
            .filter(|s| s.count > 0)
            .map(crate::HistogramSnapshot::mean_ns)
    };

    let evals = c("sweep.evaluations");
    let eval_work = total("stage.simulate") + total("stage.detect");
    let l1_cost = (evals > 0 && eval_work > 0).then(|| eval_work as f64 / evals as f64);

    let levels: [(&'static str, &str, Option<f64>); 9] = [
        ("l1.point", "cache.l1", l1_cost),
        ("l2.dict", "memo.dict", mean("recon.gram")),
        ("l2.srbm", "memo.srbm", None),
        ("l2.detector", "memo.detector", None),
        ("l3.ct", "memo.ct", None),
        ("l3.analog", "memo.analog", mean("sim.analog.build")),
        (
            "l3.reference",
            "memo.reference",
            mean("sim.reference.build"),
        ),
        ("l3.sampled", "memo.sampled", mean("sim.sample.build")),
        ("l3.encoded", "memo.encoded", mean("sim.encode.build")),
    ];
    levels
        .into_iter()
        .map(|(level, ns, est_miss_cost_ns)| {
            let hits = c(&format!("{ns}.hit"));
            CacheLevelReport {
                level,
                hits,
                misses: c(&format!("{ns}.miss")),
                evictions: c(&format!("{ns}.evict")),
                est_miss_cost_ns,
                est_saved_ns: est_miss_cost_ns.map(|cost| cost * hits as f64),
            }
        })
        .filter(|r| r.hits + r.misses + r.evictions > 0)
        .collect()
}

/// Per-stage share of a throughput delta between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDelta {
    /// Span name.
    pub name: String,
    /// Self time per evaluation in the old snapshot (ns).
    pub old_self_ns: f64,
    /// Self time per evaluation in the new snapshot (ns).
    pub new_self_ns: f64,
    /// `new - old` (ns per evaluation; positive means the stage got
    /// slower).
    pub delta_ns: f64,
}

/// Attribution of a per-evaluation cost change to individual stages.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Evaluations in the old snapshot: its `sweep.evaluations` counter,
    /// or its `sweep.point` count when the counter is absent or zero.
    pub old_evaluations: u64,
    /// Evaluations in the new snapshot.
    pub new_evaluations: u64,
    /// `sweep.point` wall time per evaluation in the old snapshot (ns).
    pub old_eval_ns: f64,
    /// `sweep.point` wall time per evaluation in the new snapshot (ns).
    pub new_eval_ns: f64,
    /// Per-stage deltas, sorted by `|delta_ns|` descending (name breaks
    /// ties).
    pub stages: Vec<StageDelta>,
}

impl ProfileDiff {
    /// `true` when the new per-evaluation cost exceeds the old by more
    /// than `tolerance` (fractional: 0.3 = 30% slower).
    #[must_use]
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.old_eval_ns > 0.0 && self.new_eval_ns > self.old_eval_ns * (1.0 + tolerance)
    }
}

/// The evaluations a snapshot's costs divide by: its `sweep.evaluations`
/// counter, or its `sweep.point` count when the counter is absent or zero.
/// A point served whole by the L1 cache opens a `sweep.point` span but
/// does no stage work, so counting it would dilute every stage's cost by
/// the share of cached points.
fn evaluations(s: &Snapshot) -> u64 {
    s.counter("sweep.evaluations")
        .filter(|&n| n > 0)
        .or_else(|| s.span("sweep.point").map(|h| h.count))
        .unwrap_or(0)
}

/// Compares two snapshots, normalising every stage's self time and the
/// summed `sweep.point` wall time by the snapshot's evaluations (its
/// `sweep.evaluations` counter, or its `sweep.point` count without one),
/// so runs of different sweep sizes or cache-hit shares are comparable
/// per evaluated point.
#[must_use]
pub fn diff(old: &Snapshot, new: &Snapshot) -> ProfileDiff {
    let (old_evaluations, new_evaluations) = (evaluations(old), evaluations(new));
    let (old_div, new_div) = (old_evaluations.max(1) as f64, new_evaluations.max(1) as f64);
    let point_wall =
        |s: &Snapshot, div: f64| s.span("sweep.point").map_or(0.0, |h| h.total_ns as f64) / div;
    let mut names: Vec<&String> = old.spans.iter().chain(&new.spans).map(|(n, _)| n).collect();
    names.sort_unstable();
    names.dedup();
    let self_per_eval =
        |s: &Snapshot, name: &str, div: f64| s.span(name).map_or(0.0, |h| h.self_ns as f64) / div;
    let mut stages: Vec<StageDelta> = names
        .into_iter()
        .map(|name| {
            let old_self_ns = self_per_eval(old, name, old_div);
            let new_self_ns = self_per_eval(new, name, new_div);
            StageDelta {
                name: name.clone(),
                old_self_ns,
                new_self_ns,
                delta_ns: new_self_ns - old_self_ns,
            }
        })
        .collect();
    stages.sort_by(|a, b| {
        b.delta_ns
            .abs()
            .total_cmp(&a.delta_ns.abs())
            .then_with(|| a.name.cmp(&b.name))
    });
    ProfileDiff {
        old_evaluations,
        new_evaluations,
        old_eval_ns: point_wall(old, old_div),
        new_eval_ns: point_wall(new, new_div),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::registry::ObsRegistry;
    use std::sync::Arc;

    /// A three-deep tree on thread 0 plus a sibling root, with ids laid
    /// out like the registry does (`thread << 32 | seq`).
    fn sample_trace() -> String {
        let lines = [
            r#"{"ts_ns":1,"kind":"begin","name":"sweep.point","fields":{"span":1,"thread":0}}"#,
            r#"{"ts_ns":2,"kind":"begin","name":"stage.simulate","fields":{"span":2,"parent":1,"thread":0}}"#,
            r#"{"ts_ns":3,"kind":"begin","name":"sim.analog","fields":{"span":3,"parent":2,"thread":0}}"#,
            r#"{"ts_ns":5,"kind":"span","name":"sim.analog","fields":{"span":3,"parent":2,"thread":0,"total_ns":2,"self_ns":2}}"#,
            r#"{"ts_ns":7,"kind":"span","name":"stage.simulate","fields":{"span":2,"parent":1,"thread":0,"total_ns":5,"self_ns":3}}"#,
            r#"{"ts_ns":9,"kind":"span","name":"sweep.point","fields":{"span":1,"thread":0,"total_ns":8,"self_ns":3}}"#,
            r#"{"ts_ns":10,"kind":"begin","name":"sweep.point","fields":{"span":4294967297,"thread":1}}"#,
            r#"{"ts_ns":14,"kind":"span","name":"sweep.point","fields":{"span":4294967297,"thread":1,"total_ns":4,"self_ns":4}}"#,
        ];
        let mut s = lines.join("\n");
        s.push('\n');
        s
    }

    #[test]
    fn reconstructs_the_parent_linked_forest() {
        let p = Profile::from_trace(&sample_trace());
        assert_eq!(p.events, 8);
        assert_eq!(p.skipped_lines, 0);
        assert_eq!(p.orphans, 0);
        // Stacks are keyed by the full name path and weighted by self time.
        assert_eq!(
            p.stacks.get("sweep.point;stage.simulate;sim.analog"),
            Some(&2)
        );
        assert_eq!(p.stacks.get("sweep.point"), Some(&7));
    }

    #[test]
    fn dangling_parents_root_the_stack_and_count_as_orphans() {
        let trace = concat!(
            "{\"ts_ns\":1,\"kind\":\"span\",\"name\":\"leaf\",",
            "\"fields\":{\"span\":7,\"parent\":99,\"thread\":0,\"total_ns\":3,\"self_ns\":3}}\n",
            "this line is torn{\n",
        );
        let p = Profile::from_trace(trace);
        assert_eq!(p.orphans, 1);
        assert_eq!(p.skipped_lines, 1);
        assert_eq!(p.stacks.get("leaf"), Some(&3));
    }

    #[test]
    fn events_without_lineage_fold_as_roots() {
        // Pre-lineage traces (no span/parent ids) make every span a root.
        let trace = concat!(
            "{\"ts_ns\":5,\"kind\":\"span\",\"name\":\"stage.power\",",
            "\"fields\":{\"total_ns\":5,\"self_ns\":5}}\n",
        );
        let p = Profile::from_trace(trace);
        assert_eq!(p.orphans, 0);
        assert_eq!(p.stacks.get("stage.power"), Some(&5));
    }

    #[test]
    fn folded_output_is_sorted_and_weighted_by_self_time() {
        let p = Profile::from_trace(&sample_trace());
        let folded = p.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            [
                "sweep.point 7",
                "sweep.point;stage.simulate 3",
                "sweep.point;stage.simulate;sim.analog 2",
            ]
        );
    }

    /// A registry snapshot holding the sample trace's spans, where each
    /// span's logical-clock duration is `tick` per clock read, plus L1
    /// counters: 3 hits, 2 misses and 2 evaluations.
    fn sample_snapshot(tick: u64) -> Snapshot {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(tick)));
        reg.counter("cache.l1.hit").add(3);
        reg.counter("cache.l1.miss").add(2);
        reg.counter("sweep.evaluations").add(2);
        for _ in 0..2 {
            let _point = reg.span("sweep.point");
            let _sim = reg.span("stage.simulate");
            drop(reg.span("sim.analog"));
        }
        reg.snapshot()
    }

    #[test]
    fn cache_efficacy_joins_counters_with_spans() {
        // Each stage.simulate spans 4 reads (start, child start and end,
        // end): total 3 ticks of 10 ns, twice.
        let report = cache_efficacy(&sample_snapshot(10));
        // Only L1 has traffic in the sample snapshot.
        assert_eq!(report.len(), 1);
        let l1 = &report[0];
        assert_eq!(l1.level, "l1.point");
        assert_eq!((l1.hits, l1.misses), (3, 2));
        // stage.simulate total 60 ns over 2 evaluations -> 30 ns per miss.
        let cost = l1.est_miss_cost_ns.expect("priced");
        assert!((cost - 30.0).abs() < 1e-9);
        let saved = l1.est_saved_ns.expect("saved");
        assert!((saved - 90.0).abs() < 1e-9);
    }

    #[test]
    fn diff_attributes_per_point_regressions_to_stages() {
        let old = sample_snapshot(10);
        let mut new = old.clone();
        // sim.analog got 10x slower: +90 ns self per point, carried up
        // into its parents' totals.
        for (name, h) in &mut new.spans {
            h.total_ns += 180;
            if name.as_str() == "sim.analog" {
                h.self_ns += 180;
            }
        }
        let d = diff(&old, &new);
        assert_eq!((d.old_evaluations, d.new_evaluations), (2, 2));
        assert!(d.new_eval_ns > d.old_eval_ns);
        let top = d.stages.first().expect("has stages");
        assert_eq!(top.name, "sim.analog", "regressed stage ranks first");
        assert!((top.delta_ns - 90.0).abs() < 1e-9, "{}", top.delta_ns);
        assert!(d.regressed(0.5), "(50 -> 140 ns mean) is a >50% regression");
        assert!(
            !diff(&old, &old).regressed(0.0),
            "self-diff never regresses"
        );
    }

    #[test]
    fn warm_point_spans_leave_per_evaluation_stage_costs_unchanged() {
        let tick = 10;
        let old = sample_snapshot(tick);
        // The same two evaluations plus five points served whole by L1:
        // each opens a `sweep.point` span and does no stage work.
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(tick)));
        reg.counter("sweep.evaluations").add(2);
        for _ in 0..2 {
            let _point = reg.span("sweep.point");
            let _sim = reg.span("stage.simulate");
            drop(reg.span("sim.analog"));
        }
        for _ in 0..5 {
            drop(reg.span("sweep.point"));
        }
        let new = reg.snapshot();
        let d = diff(&old, &new);
        assert_eq!((d.old_evaluations, d.new_evaluations), (2, 2));
        for stage in d.stages.iter().filter(|s| s.name != "sweep.point") {
            assert_eq!(stage.old_self_ns, stage.new_self_ns, "{}", stage.name);
        }
        // Without the counter the point count is the denominator.
        let mut uncounted = new.clone();
        uncounted
            .counters
            .retain(|(name, _)| name != "sweep.evaluations");
        assert_eq!(diff(&old, &uncounted).new_evaluations, 7);
    }
}
