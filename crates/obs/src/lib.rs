//! # v2d-obs — deterministic observability for the V2D reproduction
//!
//! The source paper's contribution is *measurement* — `perf stat`, PAPI
//! counters, TAU routine profiles — and this crate is the reproduction's
//! machine-readable equivalent.  Three pieces:
//!
//! * [`trace::Tracer`] — a span/event tracer riding the **simulated**
//!   per-lane clocks of [`v2d_machine::MultiCostSink`].  Because no host
//!   time is ever sampled, two runs of the same configuration (including
//!   replayed fault plans) produce bit-identical traces; the output is
//!   golden-testable, unlike any wall-clock tracer.  Exports Chrome
//!   `trace_event` JSON (one process per rank, one thread per cost lane)
//!   and collapsed-stack text for flamegraph/speedscope tools.
//! * [`metrics::Metrics`] — a registry of counters, gauges, and
//!   histograms with a stable (sorted-key) serialization, snapshotted
//!   per step into a versioned [`report::RunReport`].
//! * [`bench::BenchReport`] — canonical benchmark numbers with
//!   per-metric gates: modeled clocks compare **bit-exactly** (they are
//!   deterministic), host wall-clock compares under generous bands.
//!   [`bench::compare`] produces the delta table CI gates on.
//!
//! Everything serializes through the dependency-free [`json`] module;
//! `f64` values round-trip losslessly (Rust's shortest-representation
//! `Display`), which is what makes the zero-tolerance gates meaningful.

// Library code must not panic on a `None`/`Err` it could report: the
// JSON parser reads every client request of the service.  Tests are
// exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bench;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

/// Schema version shared by every JSON artifact this crate writes
/// (`RunReport`, `BenchReport`).  Bump on any
/// breaking change to the serialized layout.
pub const SCHEMA_VERSION: u64 = 1;

pub use bench::{compare, BenchEntry, BenchReport, Comparison, Gate};
pub use json::Json;
pub use metrics::{Histogram, Metric, Metrics};
pub use report::RunReport;
pub use trace::{chrome_trace, collapsed_stacks, Tracer};
