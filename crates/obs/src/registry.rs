//! The process-wide instrument registry: named counters and span
//! histograms, a swappable clock, and an optional JSONL trace sink.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Counter, Histogram, HistogramSnapshot};
use crate::trace::TraceEvent;

/// One open span on a thread's stack: the child-time accumulator for
/// self-time accounting, the span's lineage id, and whether the span's
/// tree was selected by the trace sampler.
struct Frame {
    child_ns: u64,
    span_id: u64,
    traced: bool,
}

/// Per-thread span bookkeeping: the open-frame stack, the id sequence,
/// the root-span sampling counter, and the lazily assigned thread
/// ordinal (`NEXT_THREAD_ORDINAL` hands each OS thread a distinct small
/// integer on its first span).
struct ThreadSpans {
    frames: Vec<Frame>,
    next_seq: u32,
    roots: u64,
    ordinal: Option<u32>,
}

impl ThreadSpans {
    fn ordinal(&mut self) -> u32 {
        *self.ordinal.get_or_insert_with(|| {
            // relaxed: ordinals only need to be distinct, not ordered
            NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed)
        })
    }
}

static NEXT_THREAD_ORDINAL: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Per-thread stack of open spans. Opening a span pushes a frame with
    /// a zeroed child-time accumulator; a closing child adds its total
    /// into the new top, which is the parent's accumulator. Frames also
    /// carry the lineage id (`thread ordinal << 32 | per-thread seq`) and
    /// the sampling decision children inherit from their root.
    static SPAN_STATE: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans { frames: Vec::new(), next_seq: 0, roots: 0, ordinal: None })
    };
}

/// Adds `ns` to the child time of the calling thread's open span, if any, so
/// a wait on other threads (the [`ObsRegistry::parallel_map`] join) leaves
/// its self time.
pub(crate) fn charge_open_span(ns: u64) {
    SPAN_STATE.with(|s| {
        if let Some(top) = s.borrow_mut().frames.last_mut() {
            top.child_ns = top.child_ns.saturating_add(ns);
        }
    });
}

fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Aggregation point for all instruments (see the crate docs for the
/// model). Most code uses the [`global`] instance through the [`span!`]
/// and [`counter!`] macros; tests construct their own for isolation.
///
/// [`span!`]: crate::span!
/// [`counter!`]: crate::counter!
pub struct ObsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    spans: Mutex<BTreeMap<String, Arc<Histogram>>>,
    clock: Mutex<Arc<dyn Clock>>,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
    sink_enabled: AtomicBool,
    trace_sample: AtomicU64,
}

impl std::fmt::Debug for ObsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRegistry")
            .field("counters", &recover(self.counters.lock()).len())
            .field("spans", &recover(self.spans.lock()).len())
            // relaxed: debug rendering; a momentarily stale flag is fine
            .field("sink_enabled", &self.sink_enabled.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for ObsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsRegistry {
    /// An empty registry with a [`MonotonicClock`] and no trace sink.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            clock: Mutex::new(Arc::new(MonotonicClock::new())),
            sink: Mutex::new(None),
            sink_enabled: AtomicBool::new(false),
            trace_sample: AtomicU64::new(1),
        }
    }

    /// The named counter, created on first use. The returned handle is
    /// cheap to clone and valid for the registry's lifetime — cache it
    /// (the [`counter!`] macro does) rather than re-resolving per event.
    ///
    /// [`counter!`]: crate::counter!
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            recover(self.counters.lock())
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The named span histogram, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            recover(self.spans.lock())
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Replaces the time source. Existing open spans mix clocks for one
    /// reading; swap at quiescent points (startup, between sweep passes).
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *recover(self.clock.lock()) = clock;
    }

    /// Reads the current clock.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        recover(self.clock.lock()).now_ns()
    }

    /// Installs a JSONL trace sink (e.g. a buffered file); `None` removes
    /// it. While no sink is installed, event emission short-circuits on a
    /// relaxed atomic load. The outgoing sink, if any, is flushed first so
    /// a buffered tail is never silently lost.
    pub fn set_sink(&self, sink: Option<Box<dyn Write + Send>>) {
        let enabled = sink.is_some();
        self.flush();
        let mut slot = recover(self.sink.lock());
        *slot = sink;
        // relaxed: advisory fast-path flag; the sink itself is behind the
        // mutex, so a stale read only costs one wasted event build.
        self.sink_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Removes the trace sink without closing it, for a caller that traces
    /// only part of its work: reinstall the returned sink with
    /// [`ObsRegistry::set_sink`] to resume the same trace. Spans that open
    /// while no sink is installed stay out of the trace.
    pub fn take_sink(&self) -> Option<Box<dyn Write + Send>> {
        let mut slot = recover(self.sink.lock());
        // relaxed: advisory fast-path flag cleared under the sink lock
        self.sink_enabled.store(false, Ordering::Relaxed);
        slot.take()
    }

    /// Sets the trace sampling stride: 1 (the default) traces every span
    /// tree, `n` traces every n-th *root* span per thread. Children
    /// inherit their root's decision, so a sampled trace keeps whole span
    /// trees and parent links never dangle. Histograms and counters
    /// always record every span — sampling bounds only the JSONL event
    /// volume.
    pub fn set_trace_sampling(&self, every: u64) {
        // relaxed: advisory configuration knob, read once per root span
        self.trace_sample.store(every.max(1), Ordering::Relaxed);
    }

    /// The current trace sampling stride (see
    /// [`ObsRegistry::set_trace_sampling`]).
    #[must_use]
    pub fn trace_sampling(&self) -> u64 {
        // relaxed: advisory configuration knob
        self.trace_sample.load(Ordering::Relaxed)
    }

    /// Whether a trace sink is installed. Callers pay for event
    /// construction only when this is true.
    #[must_use]
    pub fn sink_enabled(&self) -> bool {
        // relaxed: advisory fast-path flag; emit() re-checks under the lock
        self.sink_enabled.load(Ordering::Relaxed)
    }

    /// Writes one event to the sink, if any. A failing sink is dropped
    /// after a single stderr warning — telemetry must never take down the
    /// sweep.
    pub fn emit(&self, event: TraceEvent) {
        if !self.sink_enabled() {
            return;
        }
        let mut slot = recover(self.sink.lock());
        if let Some(sink) = slot.as_mut() {
            let mut line = event.into_json_line();
            line.push('\n');
            if let Err(e) = sink.write_all(line.as_bytes()) {
                eprintln!("warning: trace sink write failed ({e}); tracing disabled");
                *slot = None;
                // relaxed: advisory flag cleared under the sink lock
                self.sink_enabled.store(false, Ordering::Relaxed);
            }
        }
    }

    /// Flushes the trace sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = recover(self.sink.lock()).as_mut() {
            let _ = sink.flush();
        }
    }

    /// Opens a span against an already-resolved histogram handle (the
    /// [`span!`] macro's fast path). `name` is only used for the trace
    /// event on close.
    ///
    /// [`span!`]: crate::span!
    #[must_use]
    pub fn span_on<'a>(&'a self, hist: &Arc<Histogram>, name: &'static str) -> SpanGuard<'a> {
        let sink_on = self.sink_enabled();
        let sample = if sink_on {
            self.trace_sampling().max(1)
        } else {
            1
        };
        let (span_id, parent_id, thread, traced) = SPAN_STATE.with(|s| {
            let mut st = s.borrow_mut();
            let thread = st.ordinal();
            st.next_seq = st.next_seq.wrapping_add(1);
            let span_id = (u64::from(thread) << 32) | u64::from(st.next_seq);
            let parent_id = st.frames.last().map(|f| f.span_id);
            // Tree-level sampling: a root span draws from the per-thread
            // root counter; children inherit, so sampled traces keep
            // whole trees and parent links never dangle.
            let traced = sink_on
                && match st.frames.last() {
                    Some(parent) => parent.traced,
                    None => {
                        let n = st.roots;
                        st.roots += 1;
                        n % sample == 0
                    }
                };
            st.frames.push(Frame {
                child_ns: 0,
                span_id,
                traced,
            });
            (span_id, parent_id, thread, traced)
        });
        let start_ns = self.now_ns();
        if traced {
            let mut ev = TraceEvent::new(start_ns, "begin", name).field("span", span_id);
            if let Some(p) = parent_id {
                ev = ev.field("parent", p);
            }
            self.emit(ev.field("thread", thread));
        }
        SpanGuard {
            registry: self,
            hist: Arc::clone(hist),
            name,
            start_ns,
            span_id,
            parent_id,
            thread,
            traced,
        }
    }

    /// Convenience for non-hot paths: resolve by name, then open.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let hist = self.histogram(name);
        self.span_on(&hist, name)
    }

    /// Routes a warning through telemetry: prints `text` to stderr, adds
    /// `count` to the named counter, and emits a `warn` trace event.
    pub fn warn(&self, name: &'static str, count: u64, text: &str) {
        eprintln!("{text}");
        self.counter(name).add(count);
        if self.sink_enabled() {
            let ev = TraceEvent::new(self.now_ns(), "warn", name)
                .field("count", count)
                .field("text", text);
            self.emit(ev);
        }
    }

    /// Freezes every instrument into an ordered snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: recover(self.counters.lock())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            spans: recover(self.spans.lock())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every counter and histogram (names and handles stay valid).
    /// For test isolation and multi-pass benches; not thread-safe with
    /// respect to in-flight spans.
    pub fn reset(&self) {
        for c in recover(self.counters.lock()).values() {
            c.reset();
        }
        for h in recover(self.spans.lock()).values() {
            h.reset();
        }
    }
}

impl Drop for ObsRegistry {
    fn drop(&mut self) {
        // Teardown flush: a buffered sink dropped with the registry would
        // otherwise lose its tail silently, truncating the trace. (The
        // process-wide [`global`] registry lives in a `OnceLock` and never
        // drops — long-lived binaries flush through
        // [`ObsRegistry::flush`] / [`ObsRegistry::set_sink`] instead.)
        self.flush();
    }
}

/// RAII guard for an open span; records into the histogram and emits a
/// trace event with full lineage (when a sink is installed and the
/// span's tree is sampled) on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a ObsRegistry,
    hist: Arc<Histogram>,
    name: &'static str,
    start_ns: u64,
    span_id: u64,
    parent_id: Option<u64>,
    thread: u32,
    traced: bool,
}

impl SpanGuard<'_> {
    /// This span's lineage id (`thread ordinal << 32 | per-thread seq`).
    #[must_use]
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The enclosing span's id, if this span is not a root.
    #[must_use]
    pub fn parent_id(&self) -> Option<u64> {
        self.parent_id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.registry.now_ns();
        let total = end_ns.saturating_sub(self.start_ns);
        let child = SPAN_STATE.with(|s| {
            let mut st = s.borrow_mut();
            let child = st.frames.pop().map_or(0, |f| f.child_ns);
            // Propagate this span's total into the parent's accumulator.
            if let Some(parent) = st.frames.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total);
            }
            child
        });
        let self_ns = total.saturating_sub(child);
        self.hist.record(total, self_ns);
        if self.traced {
            let mut ev = TraceEvent::new(end_ns, "span", self.name).field("span", self.span_id);
            if let Some(p) = self.parent_id {
                ev = ev.field("parent", p);
            }
            let ev = ev
                .field("thread", self.thread)
                .field("total_ns", total)
                .field("self_ns", self_ns);
            self.registry.emit(ev);
        }
    }
}

/// An ordered, frozen view of a registry: counter values and span
/// histogram snapshots, both sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every span histogram, name-ordered.
    pub spans: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// A counter's value, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// A span's histogram snapshot, if present.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.spans.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Serialises the snapshot as a compact JSON object:
    ///
    /// ```json
    /// {"counters":{"cache.l1.hit":12},
    ///  "spans":{"sweep.point":{"count":96,"total_ns":1,"self_ns":1,
    ///           "mean_ns":0.01,"p50_us":1,"p95_us":2,"p99_us":2,
    ///           "buckets":[0,...]}}}
    /// ```
    ///
    /// The `p*_us` values are bucket-geometry quantile *upper bounds*
    /// (see [`HistogramSnapshot::quantile_upper_us`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::json::Json::from(self).to_string()
    }

    /// Parses a snapshot written by [`Snapshot::to_json`] (a `--metrics`
    /// file), reading each span's `count`, `total_ns`, `self_ns` and
    /// [`BUCKETS`](crate::metrics::BUCKETS) bucket counts; the derived
    /// mean and quantiles are not read back. `None` on malformed input.
    #[must_use]
    pub fn parse(text: &str) -> Option<Snapshot> {
        let v = crate::json::Json::parse(text)?;
        let counters = v
            .get("counters")?
            .as_obj()?
            .iter()
            .map(|(k, c)| Some((k.clone(), c.as_u64()?)))
            .collect::<Option<_>>()?;
        let spans = v
            .get("spans")?
            .as_obj()?
            .iter()
            .map(|(k, s)| {
                let field = |key: &str| s.get(key)?.as_u64();
                let buckets = s
                    .get("buckets")?
                    .as_arr()?
                    .iter()
                    .map(crate::json::Json::as_u64)
                    .collect::<Option<Vec<u64>>>()
                    .filter(|b| b.len() == crate::metrics::BUCKETS)?;
                let hist = HistogramSnapshot {
                    count: field("count")?,
                    total_ns: field("total_ns")?,
                    self_ns: field("self_ns")?,
                    buckets,
                };
                Some((k.clone(), hist))
            })
            .collect::<Option<_>>()?;
        Some(Snapshot { counters, spans })
    }
}

impl From<&Snapshot> for crate::json::Json {
    fn from(snap: &Snapshot) -> Self {
        // Imported here, not at module level: the tests' glob import would
        // turn their `crate::json::Json` paths into unused qualifications.
        use crate::json::Json;
        let counters = snap
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), Json::Int(*v)));
        let spans = snap.spans.iter().map(|(k, s)| {
            let stats = Json::obj([
                ("count", s.count.into()),
                ("total_ns", s.total_ns.into()),
                ("self_ns", s.self_ns.into()),
                ("mean_ns", s.mean_ns().into()),
                ("p50_us", s.p50_us().into()),
                ("p95_us", s.p95_us().into()),
                ("p99_us", s.p99_us().into()),
                ("buckets", s.buckets.iter().copied().collect()),
            ]);
            (k.as_str(), stats)
        });
        Json::obj([
            ("counters", Json::obj(counters)),
            ("spans", Json::obj(spans)),
        ])
    }
}

static GLOBAL: OnceLock<ObsRegistry> = OnceLock::new();

/// The process-wide registry used by the [`span!`] and [`counter!`]
/// macros.
///
/// [`span!`]: crate::span!
/// [`counter!`]: crate::counter!
#[must_use]
pub fn global() -> &'static ObsRegistry {
    GLOBAL.get_or_init(ObsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::trace::TraceEvent;

    /// A `Write` sink that appends into a shared buffer the test can read
    /// back after the registry has consumed the other clone.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(recover(self.0.lock()).clone()).expect("utf8")
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            recover(self.0.lock()).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A sink that always fails, to exercise the drop-on-error path.
    struct BrokenSink;

    impl Write for BrokenSink {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("broken"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn nested_spans_split_total_and_self_time() {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(1_000)));
        {
            let _outer = reg.span("outer"); // read 1 (start)
            {
                let _inner = reg.span("inner"); // read 2 (start)
            } // read 3 (end): inner total 1000, self 1000
        } // read 4 (end): outer total 3000, child 1000, self 2000
        let snap = reg.snapshot();
        let outer = snap.span("outer").expect("outer recorded");
        let inner = snap.span("inner").expect("inner recorded");
        assert_eq!(inner.total_ns, 1_000);
        assert_eq!(inner.self_ns, 1_000);
        assert_eq!(outer.total_ns, 3_000);
        assert_eq!(outer.self_ns, 2_000);
    }

    #[test]
    fn sibling_spans_each_charge_the_parent() {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(1)));
        {
            let _p = reg.span("parent"); // 1 read
            drop(reg.span("a")); // 2 reads, total 1
            drop(reg.span("b")); // 2 reads, total 1
        } // end read: parent total 5, children 2, self 3
        let snap = reg.snapshot();
        let parent = snap.span("parent").expect("parent recorded");
        assert_eq!(parent.total_ns, 5);
        assert_eq!(parent.self_ns, 3);
        let child_total = snap.span("a").expect("a").total_ns + snap.span("b").expect("b").total_ns;
        assert_eq!(parent.total_ns - parent.self_ns, child_total);
    }

    #[test]
    fn snapshot_is_name_ordered_and_resets() {
        let reg = ObsRegistry::new();
        reg.counter("zeta").add(3);
        reg.counter("alpha").incr();
        drop(reg.span("m"));
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(snap.counter("zeta"), Some(3));
        assert_eq!(snap.counter("missing"), None);
        reg.reset();
        let after = reg.snapshot();
        assert_eq!(after.counter("zeta"), Some(0));
        assert_eq!(after.span("m").expect("name survives reset").count, 0);
    }

    #[test]
    fn snapshot_json_parses_back() {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(500)));
        reg.counter("hits").add(7);
        drop(reg.span("stage"));
        let json = crate::json::Json::parse(&reg.snapshot().to_json()).expect("snapshot JSON");
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("hits"))
                .and_then(crate::json::Json::as_u64),
            Some(7)
        );
        let stage = json
            .get("spans")
            .and_then(|s| s.get("stage"))
            .expect("stage");
        assert_eq!(
            stage.get("total_ns").and_then(crate::json::Json::as_u64),
            Some(500)
        );
        assert_eq!(
            stage
                .get("buckets")
                .and_then(crate::json::Json::as_arr)
                .map(<[crate::json::Json]>::len),
            Some(crate::metrics::BUCKETS)
        );
    }

    #[test]
    fn snapshot_json_bytes_are_pinned() {
        // Golden bytes of the `--metrics` snapshot, on the registry of
        // `snapshot_json_parses_back`.
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(500)));
        reg.counter("hits").add(7);
        drop(reg.span("stage"));
        assert_eq!(
            reg.snapshot().to_json(),
            concat!(
                r#"{"counters":{"hits":7},"spans":{"stage":{"count":1,"total_ns":500,"#,
                r#""self_ns":500,"mean_ns":500.0,"p50_us":1,"p95_us":1,"p99_us":1,"#,
                r#""buckets":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}"#
            )
        );
    }

    #[test]
    fn snapshot_json_parses_back_to_the_snapshot() {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(700)));
        reg.counter("hits").add(7);
        reg.counter("misses").incr();
        {
            let _outer = reg.span("outer");
            drop(reg.span("inner"));
        }
        drop(reg.span("zero"));
        reg.reset(); // a zero-count histogram keeps its entry
        drop(reg.span("outer"));
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert_eq!(Snapshot::parse(&json), Some(snap));
        assert_eq!(
            Snapshot::parse(&json).map(|s| s.to_json()),
            Some(json),
            "re-render is byte-identical"
        );
    }

    #[test]
    fn snapshot_parse_rejects_malformed_input() {
        use crate::metrics::BUCKETS;
        let zeros = |n: usize| vec!["0"; n].join(",");
        let span =
            |buckets: &str| format!(r#""count":0,"total_ns":0,"self_ns":0,"buckets":[{buckets}]"#);
        let doc = |span: &str| format!(r#"{{"counters":{{"c":1}},"spans":{{"s":{{{span}}}}}}}"#);
        let good = span(&zeros(BUCKETS));
        assert!(
            Snapshot::parse(&doc(&good)).is_some(),
            "the base case parses"
        );
        for bad in [
            "not json".to_string(),
            r#"{"counters":{}}"#.to_string(),
            r#"{"counters":{"c":1.5},"spans":{}}"#.to_string(),
            doc(&good.replace(r#""count":0,"#, "")),
            doc(&good.replace(r#""self_ns":0"#, r#""self_ns":-1"#)),
            doc(&span(&zeros(BUCKETS - 1))),
            doc(&span(&format!(r#"{},"x""#, zeros(BUCKETS - 1)))),
        ] {
            assert_eq!(Snapshot::parse(&bad), None, "{bad}");
        }
    }

    #[test]
    fn sink_receives_span_warn_and_heartbeat_events() {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(10)));
        let buf = SharedBuf::default();
        assert!(!reg.sink_enabled());
        reg.set_sink(Some(Box::new(buf.clone())));
        assert!(reg.sink_enabled());
        drop(reg.span("s"));
        reg.warn("w", 2, "two things happened");
        reg.emit(TraceEvent::new(reg.now_ns(), "heartbeat", "progress"));
        reg.flush();
        let lines: Vec<TraceEvent> = buf
            .contents()
            .lines()
            .map(|l| TraceEvent::parse(l).expect("every sink line parses"))
            .collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].kind, "begin");
        assert_eq!(lines[1].kind, "span");
        assert_eq!(lines[1].get("total_ns"), Some(&crate::json::Json::Int(10)));
        assert_eq!(lines[2].kind, "warn");
        assert_eq!(lines[2].get("count"), Some(&crate::json::Json::Int(2)));
        assert_eq!(lines[3].kind, "heartbeat");
        reg.set_sink(None);
        assert!(!reg.sink_enabled());
    }

    #[test]
    fn a_taken_sink_pauses_the_trace_until_it_is_reinstalled() {
        let reg = ObsRegistry::new();
        let buf = SharedBuf::default();
        reg.set_sink(Some(Box::new(buf.clone())));
        drop(reg.span("traced"));
        let sink = reg.take_sink();
        assert!(sink.is_some() && !reg.sink_enabled());
        drop(reg.span("paused"));
        reg.set_sink(sink);
        drop(reg.span("resumed"));
        reg.flush();
        let spans: Vec<String> = buf
            .contents()
            .lines()
            .map(|l| TraceEvent::parse(l).expect("every sink line parses"))
            .filter(|e| e.kind == "span")
            .map(|e| e.name)
            .collect();
        assert_eq!(spans, ["traced", "resumed"]);
        // Every span still counts in the histograms.
        assert_eq!(reg.snapshot().span("paused").map(|h| h.count), Some(1));
    }

    #[test]
    fn span_events_carry_parent_linked_lineage() {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(10)));
        let buf = SharedBuf::default();
        reg.set_sink(Some(Box::new(buf.clone())));
        {
            let outer = reg.span("outer");
            let inner = reg.span("inner");
            assert_eq!(inner.parent_id(), Some(outer.span_id()));
            assert!(outer.parent_id().is_none(), "outer is a root");
        }
        reg.flush();
        let events: Vec<TraceEvent> = buf
            .contents()
            .lines()
            .map(|l| TraceEvent::parse(l).expect("parses"))
            .collect();
        // begin(outer), begin(inner), span(inner), span(outer)
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, "begin");
        assert_eq!(events[0].name, "outer");
        let outer_id = match events[0].get("span") {
            Some(&crate::json::Json::Int(id)) => id,
            other => panic!("outer begin lacks span id: {other:?}"),
        };
        assert_eq!(events[0].get("parent"), None, "roots omit parent");
        assert_eq!(events[1].name, "inner");
        assert_eq!(
            events[1].get("parent"),
            Some(&crate::json::Json::Int(outer_id))
        );
        assert_eq!(events[2].kind, "span");
        assert_eq!(events[2].name, "inner");
        assert_eq!(
            events[2].get("parent"),
            Some(&crate::json::Json::Int(outer_id))
        );
        assert_eq!(events[3].name, "outer");
        assert_eq!(
            events[3].get("span"),
            Some(&crate::json::Json::Int(outer_id))
        );
        assert!(events[3].get("thread").is_some(), "events carry the thread");
    }

    #[test]
    fn tree_sampling_keeps_whole_trees_and_all_histogram_records() {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(10)));
        reg.set_trace_sampling(2);
        assert_eq!(reg.trace_sampling(), 2);
        let buf = SharedBuf::default();
        reg.set_sink(Some(Box::new(buf.clone())));
        for _ in 0..4 {
            let _root = reg.span("root");
            drop(reg.span("leaf"));
        }
        reg.flush();
        let events: Vec<TraceEvent> = buf
            .contents()
            .lines()
            .map(|l| TraceEvent::parse(l).expect("parses"))
            .collect();
        // Roots 0 and 2 are sampled; each tree emits 2 begins + 2 ends.
        let span_ends = events.iter().filter(|e| e.kind == "span").count();
        let begins = events.iter().filter(|e| e.kind == "begin").count();
        assert_eq!(span_ends, 4);
        assert_eq!(begins, 4);
        // Every sampled end event's parent (if any) has a begin event, so
        // lineage never dangles under sampling.
        for e in events.iter().filter(|e| e.kind == "span") {
            if let Some(&crate::json::Json::Int(p)) = e.get("parent") {
                assert!(
                    events
                        .iter()
                        .any(|b| b.kind == "begin"
                            && b.get("span") == Some(&crate::json::Json::Int(p))),
                    "dangling parent {p}"
                );
            }
        }
        // Histograms are unaffected by sampling.
        let snap = reg.snapshot();
        assert_eq!(snap.span("root").expect("root").count, 4);
        assert_eq!(snap.span("leaf").expect("leaf").count, 4);
        reg.set_trace_sampling(0); // clamps to 1
        assert_eq!(reg.trace_sampling(), 1);
    }

    /// A sink that buffers writes and only publishes them on `flush`, to
    /// pin down the teardown-flush guarantees.
    #[derive(Clone, Default)]
    struct FlushGated {
        pending: Arc<Mutex<Vec<u8>>>,
        visible: Arc<Mutex<Vec<u8>>>,
    }

    impl FlushGated {
        fn visible(&self) -> String {
            String::from_utf8(recover(self.visible.lock()).clone()).expect("utf8")
        }
    }

    impl Write for FlushGated {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            recover(self.pending.lock()).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            let mut pending = recover(self.pending.lock());
            recover(self.visible.lock()).extend_from_slice(&pending);
            pending.clear();
            Ok(())
        }
    }

    #[test]
    fn registry_teardown_flushes_the_sink() {
        let buf = FlushGated::default();
        {
            let reg = ObsRegistry::new();
            reg.set_clock(Arc::new(LogicalClock::new(10)));
            reg.set_sink(Some(Box::new(buf.clone())));
            drop(reg.span("s"));
            assert_eq!(buf.visible(), "", "nothing published before flush");
        } // registry drops here
        let events: Vec<TraceEvent> = buf
            .visible()
            .lines()
            .map(|l| TraceEvent::parse(l).expect("parses"))
            .collect();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            ["begin", "span"],
            "buffered span flushed on teardown"
        );
    }

    #[test]
    fn failing_sink_is_dropped_not_fatal() {
        let reg = ObsRegistry::new();
        reg.set_sink(Some(Box::new(BrokenSink)));
        drop(reg.span("s")); // triggers a write that fails
        assert!(!reg.sink_enabled(), "broken sink must disable tracing");
        drop(reg.span("s")); // and further spans still record fine
        assert_eq!(reg.snapshot().span("s").expect("s").count, 2);
    }

    #[test]
    fn warn_counts_without_a_sink() {
        let reg = ObsRegistry::new();
        reg.warn("report.nonfinite_cells", 4, "warning: 4 cells blank");
        assert_eq!(reg.snapshot().counter("report.nonfinite_cells"), Some(4));
    }
}
