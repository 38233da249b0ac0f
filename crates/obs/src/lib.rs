//! Structured telemetry for the EffiCSense sweep engine.
//!
//! A design-space product sweep runs for hours across worker threads,
//! caches and fault plans; this crate is the window into it.
//! Std-only by design — it must build in the same offline environment as
//! the models it observes — and strictly *passive*: nothing in this crate
//! may change an evaluation result, only record timing and counts or, in
//! the case of the [`store`], decide what a lookup costs.
//!
//! Three instrument kinds, aggregated in a process-wide [`ObsRegistry`]:
//!
//! * **Counters** ([`Counter`]) — monotonically increasing atomic event
//!   counts (cache hits, evaluations, quarantined points).
//! * **Spans** ([`SpanGuard`], created by the [`span!`] macro) — scoped
//!   timers feeding a fixed-bucket latency [`Histogram`] per span name.
//!   Spans nest on a thread-local stack; every record carries both the
//!   *total* duration and the *self* time (total minus the time spent in
//!   directly nested spans), so per-stage totals are disjoint and sum to
//!   the enclosing span.
//! * **Trace events** ([`TraceEvent`]) — optional JSON-lines stream of
//!   span begin/end events (with `span`/`parent`/`thread` causal lineage),
//!   warnings and heartbeats to a sink installed with
//!   [`ObsRegistry::set_sink`]; disabled (and free) by default. A
//!   deterministic tree-level sampler
//!   ([`ObsRegistry::set_trace_sampling`]) keeps every Nth span *tree*
//!   whole, so sampled traces still reconstruct.
//!
//! Timing comes from a pluggable [`Clock`]: the default
//! [`MonotonicClock`] reads wall time, while [`LogicalClock`] advances a
//! *thread-local* tick on every read, making span durations a pure
//! function of code structure — identical sweeps produce identical metric
//! snapshots regardless of worker-thread count or interleaving.
//!
//! [`ObsRegistry::snapshot`] freezes everything into an ordered
//! name → value map ([`Snapshot`]) that serialises to JSON.
//!
//! The [`json`] module is the workspace's one JSON codec: a [`json::Json`]
//! value type whose `Display` impl is the only JSON writer (trace lines,
//! snapshots, profiles, the L1 cache file, lint reports and bench
//! summaries) and whose parser reads all of them back.
//!
//! The [`profile`] module closes the loop offline: it rebuilds the span
//! forest from a JSONL trace and aggregates it into a deterministic
//! [`Profile`] — per-stage self/total time with exact p50/p95/p99,
//! folded-stack flamegraph text, cache-efficacy estimates, and a
//! per-stage [`profile::diff`] that attributes a throughput change to
//! the stages responsible.
//!
//! The [`store`] module holds the one content-addressed [`Store`] behind
//! every evaluation cache (L1 results, L2 memo, detector memo, L3
//! prefixes), with its `<namespace>.{hit,miss,evict}` counters. It sits
//! here because both `efficsense-cs` and `efficsense-core` depend on this
//! crate and the profiler already reads those counters.
//!
//! The [`pool`] module holds the one worker pool that the sweep and the
//! batched OMP decode fan out through, [`ObsRegistry::parallel_map`]. It
//! books the caller's join wait as child time of the caller's open span.

pub mod clock;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod profile;
pub mod registry;
pub mod store;
pub mod trace;

pub use clock::{Clock, LogicalClock, MonotonicClock};
pub use metrics::{bucket_floor_us, bucket_index, Counter, Histogram, HistogramSnapshot, BUCKETS};
pub use profile::{Profile, ProfileBuilder, ProfileDiff, StageStats};
pub use registry::{global, ObsRegistry, Snapshot, SpanGuard};
pub use store::{Store, StoreStats};
pub use trace::TraceEvent;

/// Opens a named span on the [`global`] registry, returning a guard that
/// records into the span's histogram when dropped. The histogram handle is
/// resolved once and cached in a per-call-site static, so a hot loop pays
/// two clock reads and a few atomics per span — no map lookups.
///
/// ```
/// let _guard = efficsense_obs::span!("stage.simulate");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::global().span_on(
            HANDLE.get_or_init(|| $crate::global().histogram($name)),
            $name,
        )
    }};
}

/// Resolves a named counter on the [`global`] registry, cached in a
/// per-call-site static (same trick as [`span!`]).
///
/// ```
/// efficsense_obs::counter!("cache.l1.hit").incr();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}
