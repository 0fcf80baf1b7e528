//! `nd-obs` — the zero-dependency observability spine for the
//! optimal-nd workspace.
//!
//! Three pillars, all hand-rolled on the standard library (this crate
//! has no dependencies, vendored or otherwise), plus the shared
//! JSON/TOML [`value`] tree:
//!
//! * [`trace`] — structured spans with monotonic timing, a thread-local
//!   span stack and a JSONL sink (`ND_TRACE=path` or the CLIs'
//!   `--trace-out`). The [`span!`] macro is the entry point.
//! * [`metrics`] — a global registry of atomic counters, gauges and
//!   log₂-scaled histograms, snapshot-able as deterministic-ordered
//!   JSON (`nd-sweep run --stats`, `nd-opt front --stats`,
//!   `nd-sweep cache stats --json`).
//! * [`progress`] — a slot-guarded stderr progress line with ETA,
//!   driven by the sweep pool and the netsim event loop
//!   (`ND_PROGRESS=1|0` overrides the is-a-terminal default).
//! * [`value`] — a dynamic value tree with a strict TOML-subset parser
//!   and a JSON reader/writer: the spec, cache and export format of
//!   nd-sweep, nd-opt and nd-serve, and nd-trace's span-line reader.
//!
//! # Cost model
//!
//! Everything is compiled in everywhere and **off by default**. Each
//! instrumentation site's fast path is a single relaxed atomic load:
//! `span!` does not evaluate its field expressions, `metrics::inc` does
//! not touch the registry, and `Progress::update` returns before any
//! formatting. Observability never feeds back into computation —
//! enabling any of it changes no content hashes, seeds, or exported
//! bytes (regression-tested in nd-sweep).
//!
//! ```
//! nd_obs::metrics::set_enabled(true);
//! {
//!     let _span = nd_obs::span!("demo.work", items = 3u64);
//!     nd_obs::metrics::add("demo.items", 3);
//! } // span closes here; with no sink configured the line is dropped
//! let snap = nd_obs::metrics::snapshot();
//! assert_eq!(snap.counters["demo.items"], 3);
//! nd_obs::metrics::reset();
//! nd_obs::metrics::set_enabled(false);
//! ```

#![warn(missing_docs)]

mod jsonfmt;
pub mod metrics;
pub mod progress;
pub mod trace;
pub mod value;

pub use metrics::{HistogramData, Snapshot};
pub use progress::Progress;
pub use trace::{ContextGuard, FieldValue, Span};
