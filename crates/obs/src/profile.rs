//! Offline trace analysis: causal span-forest reconstruction and
//! deterministic profiling.
//!
//! A JSONL trace (see [`crate::trace`]) carries `begin`/`span` events with
//! `span`/`parent`/`thread` lineage fields and an optional closing
//! `counters` event. This module rebuilds the span forest from those
//! links and aggregates it three ways:
//!
//! * **per stage** ([`StageStats`]) — occurrence count, summed total and
//!   self time, and exact nearest-rank p50/p95/p99 over per-occurrence
//!   totals;
//! * **per folded call path** ([`StackStats`]) — `root;child;leaf` keys
//!   in the standard collapsed-stack format, rendered by
//!   [`Profile::to_folded`] for speedscope/inferno flamegraphs;
//! * **cache efficacy** ([`cache_efficacy`]) — L1/L2/L3 hit/miss/evict
//!   counters joined with the spans that price a miss, estimating the
//!   time each cache level saved.
//!
//! Everything aggregates over *names*, never span ids, threads or
//! absolute timestamps, and every map is ordered — so under
//! [`LogicalClock`](crate::clock::LogicalClock) the profile of a sweep is
//! a pure function of the code path: bit-identical across worker-thread
//! counts. That determinism is what makes [`diff`] trustworthy for
//! attributing a throughput change to specific stages.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::trace::TraceEvent;

/// Profile file format version (the `"version"` key in
/// [`Profile::to_json`]).
pub const PROFILE_VERSION: u64 = 1;

/// Parent chains longer than this are treated as broken (a corrupt trace
/// could otherwise loop forever).
const MAX_STACK_DEPTH: usize = 64;

/// Per-name aggregate over every closed span occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Closed occurrences.
    pub count: u64,
    /// Summed total durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
    /// Exact nearest-rank median of per-occurrence totals (ns).
    pub p50_ns: u64,
    /// Exact nearest-rank 95th percentile (ns).
    pub p95_ns: u64,
    /// Exact nearest-rank 99th percentile (ns).
    pub p99_ns: u64,
}

/// Aggregate for one folded call path (`root;child;leaf`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StackStats {
    /// Closed occurrences of exactly this path.
    pub count: u64,
    /// Summed total durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns) — the flamegraph weight.
    pub self_ns: u64,
}

/// A reconstructed, order-deterministic profile of one trace.
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
    /// Per-name aggregates, name-ordered.
    pub stages: BTreeMap<String, StageStats>,
    /// Folded call paths, path-ordered.
    pub stacks: BTreeMap<String, StackStats>,
    /// The last `"counters"` event in the trace, if any.
    pub counters: BTreeMap<String, u64>,
}

fn field_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.get(key)?.as_u64()
}

/// Exact nearest-rank quantile over an ascending-sorted slice (0 when
/// empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied().unwrap_or(0)
}

#[derive(Debug, Default)]
struct StageAcc {
    totals: Vec<u64>,
    total_ns: u64,
    self_ns: u64,
}

/// Streaming builder: feed trace lines (or parsed events), then
/// [`finish`](ProfileBuilder::finish) into a [`Profile`]. Span names are
/// interned so a million-event trace holds each name once.
#[derive(Debug, Default)]
pub struct ProfileBuilder {
    names: Vec<String>,
    name_ix: BTreeMap<String, u32>,
    /// span id → (name index, parent id), learned from `begin` and
    /// `span` events alike so an end event can resolve ancestors whose
    /// own end has not been seen yet.
    lineage: BTreeMap<u64, (u32, Option<u64>)>,
    stages: BTreeMap<u32, StageAcc>,
    stacks: BTreeMap<Vec<u32>, StackStats>,
    counters: BTreeMap<String, u64>,
    events: u64,
    skipped_lines: u64,
    orphans: u64,
}

impl ProfileBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&ix) = self.name_ix.get(name) {
            return ix;
        }
        let ix = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ix.insert(name.to_string(), ix);
        ix
    }

    /// Feeds one raw JSONL line; blank lines are ignored, unparseable
    /// ones are counted in [`Profile::skipped_lines`].
    pub fn add_line(&mut self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        match TraceEvent::parse(line) {
            Some(ev) => self.add_event(&ev),
            None => self.skipped_lines += 1,
        }
    }

    /// Feeds one parsed event.
    pub fn add_event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match ev.kind.as_str() {
            "begin" => {
                if let Some(id) = field_u64(ev, "span") {
                    let nix = self.intern(&ev.name);
                    self.lineage.insert(id, (nix, field_u64(ev, "parent")));
                }
            }
            "span" => self.add_span(ev),
            "counters" => {
                // Last event wins: the registry emits its closing totals
                // when the sink is detached or the session finishes.
                self.counters = ev
                    .fields
                    .iter()
                    .filter_map(|(k, v)| match v {
                        Json::Int(n) => Some((k.clone(), *n)),
                        _ => None,
                    })
                    .collect();
            }
            _ => {}
        }
    }

    fn add_span(&mut self, ev: &TraceEvent) {
        let Some(total_ns) = field_u64(ev, "total_ns") else {
            return;
        };
        let self_ns = field_u64(ev, "self_ns").unwrap_or(total_ns);
        let nix = self.intern(&ev.name);
        let parent = field_u64(ev, "parent");
        if let Some(id) = field_u64(ev, "span") {
            self.lineage.insert(id, (nix, parent));
        }
        let acc = self.stages.entry(nix).or_default();
        acc.totals.push(total_ns);
        acc.total_ns = acc.total_ns.saturating_add(total_ns);
        acc.self_ns = acc.self_ns.saturating_add(self_ns);
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
        let st = self.stacks.entry(path).or_default();
        st.count += 1;
        st.total_ns = st.total_ns.saturating_add(total_ns);
        st.self_ns = st.self_ns.saturating_add(self_ns);
    }

    /// Aggregates everything into the final [`Profile`].
    #[must_use]
    pub fn finish(self) -> Profile {
        let Self {
            names,
            stages: raw_stages,
            stacks: raw_stacks,
            counters,
            events,
            skipped_lines,
            orphans,
            ..
        } = self;
        let name_of = |ix: u32| names.get(ix as usize).cloned().unwrap_or_default();
        let mut stages = BTreeMap::new();
        for (nix, mut acc) in raw_stages {
            acc.totals.sort_unstable();
            stages.insert(
                name_of(nix),
                StageStats {
                    count: acc.totals.len() as u64,
                    total_ns: acc.total_ns,
                    self_ns: acc.self_ns,
                    p50_ns: nearest_rank(&acc.totals, 0.50),
                    p95_ns: nearest_rank(&acc.totals, 0.95),
                    p99_ns: nearest_rank(&acc.totals, 0.99),
                },
            );
        }
        let mut stacks: BTreeMap<String, StackStats> = BTreeMap::new();
        for (path, st) in raw_stacks {
            let key = path
                .iter()
                .map(|&ix| name_of(ix))
                .collect::<Vec<_>>()
                .join(";");
            let merged = stacks.entry(key).or_default();
            merged.count += st.count;
            merged.total_ns = merged.total_ns.saturating_add(st.total_ns);
            merged.self_ns = merged.self_ns.saturating_add(st.self_ns);
        }
        Profile {
            events,
            skipped_lines,
            orphans,
            stages,
            stacks,
            counters,
        }
    }
}

impl Profile {
    /// Builds a profile from the full text of a JSONL trace.
    #[must_use]
    pub fn from_trace(text: &str) -> Profile {
        let mut b = ProfileBuilder::new();
        for line in text.lines() {
            b.add_line(line);
        }
        b.finish()
    }

    /// Serialises the profile as one deterministic JSON document (the
    /// `.prof` format consumed by `cargo xtask trace diff`):
    ///
    /// ```json
    /// {"version":1,"events":9,"skipped_lines":0,"orphans":0,
    ///  "stages":{"sweep.point":{"count":4,"total_ns":9,"self_ns":3,
    ///            "p50_ns":2,"p95_ns":3,"p99_ns":3}},
    ///  "stacks":{"sweep.point;stage.simulate":{"count":4,"total_ns":6,"self_ns":6}},
    ///  "counters":{"cache.l1.hit":2}}
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let stages = self.stages.iter().map(|(name, s)| {
            let stats = Json::obj([
                ("count", s.count.into()),
                ("total_ns", s.total_ns.into()),
                ("self_ns", s.self_ns.into()),
                ("p50_ns", s.p50_ns.into()),
                ("p95_ns", s.p95_ns.into()),
                ("p99_ns", s.p99_ns.into()),
            ]);
            (name.as_str(), stats)
        });
        let stacks = self.stacks.iter().map(|(path, s)| {
            let stats = Json::obj([
                ("count", s.count.into()),
                ("total_ns", s.total_ns.into()),
                ("self_ns", s.self_ns.into()),
            ]);
            (path.as_str(), stats)
        });
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), Json::Int(*v)));
        Json::obj([
            ("version", PROFILE_VERSION.into()),
            ("events", self.events.into()),
            ("skipped_lines", self.skipped_lines.into()),
            ("orphans", self.orphans.into()),
            ("stages", Json::obj(stages)),
            ("stacks", Json::obj(stacks)),
            ("counters", Json::obj(counters)),
        ])
        .to_string()
    }

    /// Parses a profile serialised by [`Profile::to_json`]; `None` on
    /// malformed input or an unknown format version.
    #[must_use]
    pub fn parse(text: &str) -> Option<Profile> {
        let v = Json::parse(text)?;
        if v.get("version")?.as_u64()? != PROFILE_VERSION {
            return None;
        }
        let mut stages = BTreeMap::new();
        for (name, s) in v.get("stages")?.as_obj()? {
            stages.insert(
                name.clone(),
                StageStats {
                    count: s.get("count")?.as_u64()?,
                    total_ns: s.get("total_ns")?.as_u64()?,
                    self_ns: s.get("self_ns")?.as_u64()?,
                    p50_ns: s.get("p50_ns")?.as_u64()?,
                    p95_ns: s.get("p95_ns")?.as_u64()?,
                    p99_ns: s.get("p99_ns")?.as_u64()?,
                },
            );
        }
        let mut stacks = BTreeMap::new();
        for (path, s) in v.get("stacks")?.as_obj()? {
            stacks.insert(
                path.clone(),
                StackStats {
                    count: s.get("count")?.as_u64()?,
                    total_ns: s.get("total_ns")?.as_u64()?,
                    self_ns: s.get("self_ns")?.as_u64()?,
                },
            );
        }
        let mut counters = BTreeMap::new();
        for (k, c) in v.get("counters")?.as_obj()? {
            counters.insert(k.clone(), c.as_u64()?);
        }
        Some(Profile {
            events: v.get("events")?.as_u64()?,
            skipped_lines: v.get("skipped_lines")?.as_u64()?,
            orphans: v.get("orphans")?.as_u64()?,
            stages,
            stacks,
            counters,
        })
    }

    /// Renders the folded-stack flamegraph text: one
    /// `root;child;leaf weight` line per call path, weighted by summed
    /// self time in nanoseconds. The format is consumed directly by
    /// inferno (`inferno-flamegraph`) and speedscope.
    #[must_use]
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (path, s) in &self.stacks {
            out.push_str(&format!("{path} {}\n", s.self_ns));
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
    /// span(s); `None` when the trace carries no span to price it with.
    pub est_miss_cost_ns: Option<f64>,
    /// `hits x est_miss_cost_ns` — estimated time the level saved (ns).
    pub est_saved_ns: Option<f64>,
}

/// Joins the trace's cache counters with span durations into per-level
/// time-saved estimates. Every level is a [`crate::Store`] counting
/// `<namespace>.{hit,miss,evict}`; levels with zero traffic are omitted.
///
/// Pricing rules (all estimates, not measurements):
///
/// * **L1** (`cache.l1.*`, whole-point result cache) — a hit skips one
///   full evaluation, priced as
///   `(Σ stage.simulate + Σ stage.detect) / sweep.evaluations`.
/// * **L2 dict** (`memo.dict.*`) — a hit skips the Gram/AᵀA dictionary
///   build, priced as the mean `recon.gram` span.
/// * **L3 analog / reference / sampled** (`memo.<class>.*`) — a hit
///   skips the class rebuild, priced by the mean `sim.analog.build`,
///   `sim.reference.build` or `sim.sample.build` span.
/// * Levels without a dedicated rebuild span (l2.srbm, l2.detector,
///   l3.ct) report counters only (`est_* = None`).
#[must_use]
pub fn cache_efficacy(p: &Profile) -> Vec<CacheLevelReport> {
    let c = |name: &str| p.counters.get(name).copied().unwrap_or(0);
    let mean = |name: &str| {
        p.stages
            .get(name)
            .filter(|s| s.count > 0)
            .map(|s| s.total_ns as f64 / s.count as f64)
    };

    let evals = c("sweep.evaluations");
    let eval_work = p.stages.get("stage.simulate").map_or(0, |s| s.total_ns)
        + p.stages.get("stage.detect").map_or(0, |s| s.total_ns);
    let l1_cost = (evals > 0 && eval_work > 0).then(|| eval_work as f64 / evals as f64);

    let levels: [(&'static str, &str, Option<f64>); 8] = [
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

/// Per-stage share of a throughput delta between two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDelta {
    /// Span name.
    pub name: String,
    /// Self time per sweep point in the old profile (ns).
    pub old_self_pp_ns: f64,
    /// Self time per sweep point in the new profile (ns).
    pub new_self_pp_ns: f64,
    /// `new - old` (ns per point; positive means the stage got slower).
    pub delta_pp_ns: f64,
}

/// Attribution of a per-point cost change to individual stages.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// `sweep.point` occurrences in the old profile.
    pub old_points: u64,
    /// `sweep.point` occurrences in the new profile.
    pub new_points: u64,
    /// Mean wall time of one `sweep.point` in the old profile (ns).
    pub old_point_ns: f64,
    /// Mean wall time of one `sweep.point` in the new profile (ns).
    pub new_point_ns: f64,
    /// Per-stage deltas, sorted by `|delta_pp_ns|` descending (name
    /// breaks ties).
    pub stages: Vec<StageDelta>,
}

impl ProfileDiff {
    /// `true` when the new per-point cost exceeds the old by more than
    /// `tolerance` (fractional: 0.3 = 30% slower).
    #[must_use]
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.old_point_ns > 0.0 && self.new_point_ns > self.old_point_ns * (1.0 + tolerance)
    }
}

/// Compares two profiles, normalising every stage's self time by its
/// profile's `sweep.point` count so traces of different sweep sizes (or
/// sampling strides) are comparable per point.
#[must_use]
pub fn diff(old: &Profile, new: &Profile) -> ProfileDiff {
    let points = |p: &Profile| p.stages.get("sweep.point").map_or(0, |s| s.count);
    let point_mean = |p: &Profile| {
        p.stages
            .get("sweep.point")
            .filter(|s| s.count > 0)
            .map_or(0.0, |s| s.total_ns as f64 / s.count as f64)
    };
    let (old_points, new_points) = (points(old), points(new));
    let (old_div, new_div) = (old_points.max(1) as f64, new_points.max(1) as f64);
    let mut names: Vec<&String> = old.stages.keys().collect();
    names.extend(new.stages.keys());
    names.sort_unstable();
    names.dedup();
    let mut stages: Vec<StageDelta> = names
        .into_iter()
        .map(|name| {
            let old_pp = old.stages.get(name).map_or(0.0, |s| s.self_ns as f64) / old_div;
            let new_pp = new.stages.get(name).map_or(0.0, |s| s.self_ns as f64) / new_div;
            StageDelta {
                name: name.clone(),
                old_self_pp_ns: old_pp,
                new_self_pp_ns: new_pp,
                delta_pp_ns: new_pp - old_pp,
            }
        })
        .collect();
    stages.sort_by(|a, b| {
        b.delta_pp_ns
            .abs()
            .total_cmp(&a.delta_pp_ns.abs())
            .then_with(|| a.name.cmp(&b.name))
    });
    ProfileDiff {
        old_points,
        new_points,
        old_point_ns: point_mean(old),
        new_point_ns: point_mean(new),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            r#"{"ts_ns":15,"kind":"counters","name":"registry.counters","fields":{"cache.l1.hit":3,"cache.l1.miss":2,"sweep.evaluations":2}}"#,
        ];
        let mut s = lines.join("\n");
        s.push('\n');
        s
    }

    #[test]
    fn reconstructs_the_parent_linked_forest() {
        let p = Profile::from_trace(&sample_trace());
        assert_eq!(p.events, 9);
        assert_eq!(p.skipped_lines, 0);
        assert_eq!(p.orphans, 0);
        let point = p.stages.get("sweep.point").expect("sweep.point");
        assert_eq!(point.count, 2);
        assert_eq!(point.total_ns, 12);
        assert_eq!(point.self_ns, 7);
        // Quantiles over sorted totals [4, 8]: p50 -> 4, p95/p99 -> 8.
        assert_eq!(point.p50_ns, 4);
        assert_eq!(point.p95_ns, 8);
        assert_eq!(point.p99_ns, 8);
        // Stacks are keyed by the full name path.
        assert_eq!(
            p.stacks
                .get("sweep.point;stage.simulate;sim.analog")
                .map(|s| (s.count, s.total_ns, s.self_ns)),
            Some((1, 2, 2))
        );
        assert_eq!(p.stacks.get("sweep.point").map(|s| s.count), Some(2));
        assert_eq!(p.counters.get("cache.l1.hit"), Some(&3));
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
        assert_eq!(p.stacks.get("leaf").map(|s| s.count), Some(1));
    }

    #[test]
    fn events_without_lineage_still_profile_flat() {
        // Pre-lineage traces (no span/parent ids) degrade to per-name
        // stats with every span a root.
        let trace = concat!(
            "{\"ts_ns\":5,\"kind\":\"span\",\"name\":\"stage.power\",",
            "\"fields\":{\"total_ns\":5,\"self_ns\":5}}\n",
        );
        let p = Profile::from_trace(trace);
        assert_eq!(p.orphans, 0);
        assert_eq!(p.stages.get("stage.power").map(|s| s.count), Some(1));
        assert_eq!(p.stacks.get("stage.power").map(|s| s.count), Some(1));
    }

    #[test]
    fn profile_json_round_trips() {
        let p = Profile::from_trace(&sample_trace());
        let json = p.to_json();
        let back = Profile::parse(&json).expect("profile JSON parses");
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json, "re-render is byte-identical");
        assert_eq!(Profile::parse("{\"version\":999}"), None);
        assert_eq!(Profile::parse("not json"), None);
    }

    #[test]
    fn profile_json_bytes_are_pinned() {
        // Golden bytes of the `.prof` format `trace diff` reads back.
        assert_eq!(
            Profile::from_trace(&sample_trace()).to_json(),
            concat!(
                r#"{"version":1,"events":9,"skipped_lines":0,"orphans":0,"stages":{"#,
                r#""sim.analog":{"count":1,"total_ns":2,"self_ns":2,"p50_ns":2,"p95_ns":2,"p99_ns":2},"#,
                r#""stage.simulate":{"count":1,"total_ns":5,"self_ns":3,"p50_ns":5,"p95_ns":5,"p99_ns":5},"#,
                r#""sweep.point":{"count":2,"total_ns":12,"self_ns":7,"p50_ns":4,"p95_ns":8,"p99_ns":8}},"#,
                r#""stacks":{"sweep.point":{"count":2,"total_ns":12,"self_ns":7},"#,
                r#""sweep.point;stage.simulate":{"count":1,"total_ns":5,"self_ns":3},"#,
                r#""sweep.point;stage.simulate;sim.analog":{"count":1,"total_ns":2,"self_ns":2}},"#,
                r#""counters":{"cache.l1.hit":3,"cache.l1.miss":2,"sweep.evaluations":2}}"#
            )
        );
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

    #[test]
    fn cache_efficacy_joins_counters_with_spans() {
        let p = Profile::from_trace(&sample_trace());
        let report = cache_efficacy(&p);
        // Only L1 has traffic in the sample trace.
        assert_eq!(report.len(), 1);
        let l1 = &report[0];
        assert_eq!(l1.level, "l1.point");
        assert_eq!((l1.hits, l1.misses), (3, 2));
        // stage.simulate total 5 over 2 evaluations -> 2.5 ns per miss.
        let cost = l1.est_miss_cost_ns.expect("priced");
        assert!((cost - 2.5).abs() < 1e-9);
        let saved = l1.est_saved_ns.expect("saved");
        assert!((saved - 7.5).abs() < 1e-9);
    }

    #[test]
    fn diff_attributes_per_point_regressions_to_stages() {
        let old = Profile::from_trace(&sample_trace());
        // New trace: same shape but sim.analog got 10x slower.
        let new_trace = sample_trace()
            .replace(
                "\"total_ns\":2,\"self_ns\":2",
                "\"total_ns\":20,\"self_ns\":20",
            )
            .replace(
                "\"total_ns\":5,\"self_ns\":3",
                "\"total_ns\":23,\"self_ns\":3",
            )
            .replace(
                "\"total_ns\":8,\"self_ns\":3",
                "\"total_ns\":26,\"self_ns\":3",
            );
        let new = Profile::from_trace(&new_trace);
        let d = diff(&old, &new);
        assert_eq!(d.old_points, 2);
        assert_eq!(d.new_points, 2);
        assert!(d.new_point_ns > d.old_point_ns);
        let top = d.stages.first().expect("has stages");
        assert_eq!(top.name, "sim.analog", "regressed stage ranks first");
        assert!((top.delta_pp_ns - 9.0).abs() < 1e-9, "{}", top.delta_pp_ns);
        assert!(d.regressed(0.5), "(6->15 mean) is a >50% regression");
        assert!(
            !diff(&old, &old).regressed(0.0),
            "self-diff never regresses"
        );
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.95), 95);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }
}
