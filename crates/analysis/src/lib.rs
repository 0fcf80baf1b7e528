//! # nd-analysis — exact and statistical analysis of ND schedules
//!
//! Three complementary ways to evaluate a neighbor-discovery schedule from
//! the reproduction of *On Optimal Neighbor Discovery* (SIGCOMM 2019):
//!
//! * [`exact`] — the coverage-map sweep: exact (nanosecond-precise)
//!   worst-case and mean discovery latency for any pair of periodic
//!   schedules, replacing the recursive scheme of the paper's
//!   reference \[18\];
//! * [`dist`] — exact latency *distributions* (CDF, quantiles, mean), not
//!   just the worst case;
//! * [`montecarlo`] — randomized-phase simulation campaigns on
//!   `nd-netsim`, for collisions, fault injection and reactive protocols;
//! * [`residue`] — residue-class gap folding: the ultimate coverage of an
//!   expansion, computed from one fold per beacon so prime-pair schedules
//!   with huge hyperperiods stop expanding the moment coverage saturates;
//! * [`verify`] — cross-validation of the exact engine, a naive oracle
//!   and the simulator against each other.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod exact;
pub mod montecarlo;
pub mod residue;
pub mod verify;

pub use dist::LatencyDistribution;
pub use exact::{
    naive_first_discovery, one_way_coverage, one_way_worst_case, two_way_worst_case,
    AnalysisConfig, CoverageCase, WorstCase,
};
pub use montecarlo::{
    group_success_rate, group_success_rate_factory, pair_trials, LatencySummary, PairMetric,
};
pub use residue::ultimate_covered_measure;
pub use verify::{cross_validate, Verification};
