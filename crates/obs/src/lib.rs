#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # metaopt-obs
//!
//! The workspace's observability subsystem: a std-only (zero external
//! dependencies) metrics registry, structured tracer, and flight
//! recorder. Everything above it in the dependency graph — `lp`, `milp`,
//! `campaign`, `server`, the bench harnesses — records through handles
//! minted here; the gap server's `GET /metrics` renders the registry in
//! Prometheus text exposition format and `GET /admin/trace` tails the
//! flight recorder as NDJSON.
//!
//! Three design rules hold everywhere (DESIGN.md §15):
//!
//! 1. **Observation never perturbs computation.** Handles are plain
//!    atomics; no metric or span feeds back into solver decisions, so the
//!    deterministic wave engine stays bit-identical with the recorder on.
//! 2. **Disabled means free.** [`Registry::disabled`] /
//!    [`Tracer::disabled`] handles are `None`-backed no-ops; their
//!    overhead measured under 2% (DESIGN.md §15.4).
//! 3. **Time is injected.** Spans are clocked by the [`Clock`] trait —
//!    this crate hosts the workspace's one approved `Instant::now()`
//!    call site (`clock::SystemClock`), checked by lint AN001.

pub mod clock;
pub mod metrics;
pub mod trace;

pub use clock::{Clock, SystemClock, TestClock};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{Record, RecordKind, SpanGuard, Tracer};
