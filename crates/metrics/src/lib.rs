//! # pdq-metrics: live observability for the PDQ server stack
//!
//! The paper's argument is about where fine-grain protocol-dispatch time
//! goes; this crate makes that visible on a *running* server instead of a
//! post-mortem stats dump. Two halves:
//!
//! * [`Registry`] — named relaxed-atomic [`Counter`]s, [`Gauge`]s, and
//!   log₂-bucketed [`Histogram`]s, rendered as Prometheus-style
//!   `name{label="v"} value` text. Instruments are cheap clones of
//!   cache-line-padded atomics ([`pdq_core::CachePadded`], the same pattern
//!   as the executor's per-shard worker counters): recording is one relaxed
//!   `fetch_add`, and the registry's mutex is touched only at
//!   registration and render time — never on the hot path.
//! * [`TraceLog`] — a bounded in-memory JSONL event buffer with an explicit
//!   drop policy: when the buffer is full (or momentarily contended) the
//!   event is *dropped and counted*, so tracing can never block or
//!   backpressure the event loop it observes.
//!
//! Percentiles come from the histogram buckets: bucket `i` counts samples
//! whose value has bit length `i` (so bucket upper bounds are `2^i - 1`),
//! and [`HistogramSnapshot::quantile`] walks the cumulative distribution.
//! One-bucket resolution (a factor of two) is deliberate — it keeps
//! recording branch-free and exact under concurrency, which the proptests
//! in [`registry`] pin.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod registry;
pub mod trace;

pub use registry::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};
pub use trace::{validate_jsonl, TraceLog, TraceValue};
