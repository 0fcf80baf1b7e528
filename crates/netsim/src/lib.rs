//! # nd-netsim — the multi-node discrete-event network simulator
//!
//! The paper analyzes *pairwise* discovery; its collision model (Eq. 12)
//! only bites once many nodes contend for one channel. This crate
//! simulates an **N-node cohort**: a discrete-event core (an event queue
//! picked from the cohort size — binary heap for small cohorts,
//! hierarchical timing wheel for large ones — plus a logical clock)
//! advances nodes ([`node`]) whose radios share the paper's channel
//! model: overlap geometry, half-duplex blanking, ALOHA collisions, fault
//! injection. It is the repository's only discrete-event engine; a pair
//! is the two-node always-on cohort, which is what the Monte-Carlo
//! harnesses run (the oracle tests hold it to a direct enumeration).
//!
//! What the cohort adds on top:
//!
//! * **churn** ([`churn`]) — nodes join and leave mid-run on declarative
//!   [`ChurnPlan`]s;
//! * **per-node clock drift** — compose [`nd_sim::Drifting`] under any
//!   behaviour, per node;
//! * **per-node RNG streams** — every node draws from its own
//!   SplitMix64-derived stream rooted in the run seed, so sweeps can
//!   derive the whole cohort's randomness from a job content hash;
//! * **cohort metrics** ([`metrics`]) — first-contact, median-pair and
//!   full-cohort discovery latencies measured from each pair's
//!   co-presence start.
//!
//! The `nd-sweep` crate exposes all of this as the `netsim` sweep backend
//! (`backend = "netsim"` with `nodes`, `churn` and `collision` grid axes).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn;
pub mod engine;
pub(crate) mod event;
pub mod metrics;
pub mod node;
#[cfg(test)]
mod queue_equivalence;
pub mod shard;
mod steady;
#[cfg(test)]
mod steady_equivalence;
pub mod wheel;

pub use churn::ChurnPlan;
pub use engine::NetSimulator;
pub use metrics::{CohortReport, PairMetric};
pub use node::NodeSpec;
pub use shard::{run_sharded, run_sharded_collect, ShardedReport};
