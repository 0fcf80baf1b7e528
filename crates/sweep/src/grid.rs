//! Grid expansion: a [`ScenarioSpec`]'s axes, crossed into concrete jobs.
//!
//! Each job is one fully resolved evaluation point. Jobs carry their own
//! *content hash* — a digest of every input that influences the job's
//! result (resolved parameters, backend, metric, radio, sim settings,
//! engine version) and **not** of the surrounding grid — so two sweeps
//! whose grids overlap share cache entries for the overlapping points, and
//! per-job RNG seeds derived from the hash are reproducible everywhere.

use crate::hash::{sha256_hex, sha256_prefix_u64};
use crate::spec::{Deadline, Horizon, ScenarioSpec, ENGINE_VERSION};
use crate::value::Value;
use nd_core::stable::StableEncode;
use nd_core::time::Tick;

/// One fully resolved evaluation point.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Position in the expansion order (row order of the results).
    pub index: usize,
    /// Role A's protocol selector string (registry name or parametrized
    /// form).
    pub protocol: String,
    /// Role A's total duty-cycle target η.
    pub eta: f64,
    /// Role A's slot length for slotted protocols.
    pub slot: Tick,
    /// Role B's protocol selector; `None` = role A's.
    pub protocol_b: Option<String>,
    /// Role B's duty-cycle target; `None` = role A's.
    pub eta_b: Option<f64>,
    /// Role B's slot length; `None` = role A's.
    pub slot_b: Option<Tick>,
    /// Fraction of the cohort running role B (netsim backend; the
    /// pairwise backends put role B on device 1 whenever a role-B axis
    /// is set, regardless of `mix`).
    pub mix: f64,
    /// Relative drift of device B (ppm).
    pub drift_ppm: i64,
    /// I.i.d. reception-drop probability.
    pub drop_probability: f64,
    /// Total turnaround overhead (split evenly between TxRx and RxTx).
    pub turnaround: Tick,
    /// Fixed phase of device B; `None` = random per trial.
    pub phase: Option<Tick>,
    /// Duty-cycle asymmetry ratio (bounds backend).
    pub ratio: f64,
    /// Cohort size (netsim backend).
    pub nodes: u32,
    /// Churn fraction (netsim backend).
    pub churn: f64,
    /// Collision channel on/off (netsim backend; montecarlo uses
    /// `sim.collisions`).
    pub collision: bool,
}

impl Job {
    /// Whether this job carries any role-B departure from the symmetric
    /// default. Only then do the role fields enter the content hash, so
    /// every symmetric job keeps its pre-role hash (and cache entry).
    pub fn has_role_b(&self) -> bool {
        self.protocol_b.is_some()
            || self.eta_b.is_some()
            || self.slot_b.is_some()
            || self.mix != 0.0
    }

    /// Role A's configuration (device 0; the whole cohort minus the
    /// role-B share).
    pub fn role_a(&self) -> nd_protocols::RoleConfig {
        nd_protocols::RoleConfig {
            protocol: self.protocol.clone(),
            eta: self.eta,
            slot: self.slot,
        }
    }

    /// Role B's configuration (device 1; the role-B share of a cohort),
    /// with unset fields inherited from role A.
    pub fn role_b(&self) -> nd_protocols::RoleConfig {
        nd_protocols::RoleConfig {
            protocol: self
                .protocol_b
                .clone()
                .unwrap_or_else(|| self.protocol.clone()),
            eta: self.eta_b.unwrap_or(self.eta),
            slot: self.slot_b.unwrap_or(self.slot),
        }
    }

    /// The job's full role pair.
    pub fn role_pair(&self) -> nd_protocols::RolePair {
        nd_protocols::RolePair {
            a: self.role_a(),
            b: self.role_b(),
        }
    }

    /// The radio this job simulates with: the spec's ideal radio plus the
    /// job's turnaround overhead, split evenly between TxRx and RxTx (the
    /// Appendix A.5 convention). Shared by the engine and the content hash
    /// so the two can never disagree.
    pub fn resolved_radio(&self, spec: &ScenarioSpec) -> nd_core::params::RadioParams {
        let mut radio = nd_core::params::RadioParams::ideal(spec.radio.omega, spec.radio.alpha);
        radio.do_tx_rx = self.turnaround / 2;
        radio.do_rx_tx = self.turnaround / 2;
        radio
    }

    /// The base `SimConfig` this job's trials derive from (per-trial seeds
    /// are mixed in by the engine; a `PredictedTimes` horizon is resolved
    /// there too and encoded separately in [`Job::canonical_bytes`]).
    pub fn base_sim_config(&self, spec: &ScenarioSpec) -> nd_sim::SimConfig {
        nd_sim::SimConfig {
            radio: self.resolved_radio(spec),
            overlap: spec.overlap,
            t_end: match spec.sim.horizon {
                Horizon::Fixed(t) => t,
                Horizon::PredictedTimes(_) => Tick::ZERO,
            },
            seed: spec.sim.seed,
            half_duplex: spec.sim.half_duplex,
            // the netsim backend sweeps the collision channel as a grid
            // axis; the pairwise backends use the spec-wide switch
            collisions: if spec.backend == crate::spec::Backend::Netsim {
                self.collision
            } else {
                spec.sim.collisions
            },
            drop_probability: self.drop_probability,
        }
    }

    /// The job's canonical byte encoding: everything that determines its
    /// result. Includes the sweep-level settings that apply to every job
    /// (backend, metric, radio, sim) but not the other grid points. The
    /// whole resolved `SimConfig` is encoded through its `StableEncode`
    /// impl, so a result-affecting field added to `SimConfig` enters the
    /// cache key the moment `base_sim_config` constructs it.
    pub fn canonical_bytes(&self, spec: &ScenarioSpec) -> Vec<u8> {
        let mut out = Vec::new();
        ENGINE_VERSION.encode(&mut out);
        spec.backend.name().encode(&mut out);
        spec.metric.name().encode(&mut out);
        spec.percentiles.encode(&mut out);
        spec.radio.prx_mw.encode(&mut out);
        self.base_sim_config(spec).encode(&mut out);
        spec.sim.trials.encode(&mut out);
        match spec.sim.horizon {
            Horizon::Fixed(t) => {
                "fixed".encode(&mut out);
                t.encode(&mut out);
            }
            Horizon::PredictedTimes(x) => {
                "predicted".encode(&mut out);
                x.encode(&mut out);
            }
        }
        match spec.sim.deadline {
            None => "none".encode(&mut out),
            Some(Deadline::Predicted) => "predicted".encode(&mut out),
            Some(Deadline::Fixed(t)) => {
                "fixed".encode(&mut out);
                t.encode(&mut out);
            }
        }
        self.protocol.encode(&mut out);
        self.eta.encode(&mut out);
        self.slot.encode(&mut out);
        self.drift_ppm.encode(&mut out);
        self.drop_probability.encode(&mut out);
        self.turnaround.encode(&mut out);
        self.phase.encode(&mut out);
        self.ratio.encode(&mut out);
        (self.nodes as u64).encode(&mut out);
        self.churn.encode(&mut out);
        self.collision.encode(&mut out);
        // role-B fields are appended only for asymmetric jobs, so every
        // symmetric job (the entire pre-role universe) keeps its hash —
        // and its cache entries — byte for byte
        if self.has_role_b() {
            "role-b".encode(&mut out);
            self.protocol_b.encode(&mut out);
            self.eta_b.encode(&mut out);
            self.slot_b.encode(&mut out);
            self.mix.encode(&mut out);
        }
        out
    }

    /// The job's content hash (cache key), as lowercase hex.
    pub fn content_hash(&self, spec: &ScenarioSpec) -> String {
        sha256_hex(&self.canonical_bytes(spec))
    }

    /// The job's deterministic RNG seed, derived from its content (and so
    /// identical for the same point across different sweeps).
    pub fn seed(&self, spec: &ScenarioSpec) -> u64 {
        let mut bytes = self.canonical_bytes(spec);
        bytes.extend_from_slice(b"/seed");
        sha256_prefix_u64(&bytes)
    }

    /// The job's parameter columns, in stable presentation order. The
    /// role-B columns render as null/empty for symmetric jobs.
    pub fn params(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("protocol", Value::Str(self.protocol.clone())),
            ("eta", Value::Float(self.eta)),
            ("slot_us", Value::Float(self.slot.as_micros_f64())),
            (
                "protocol_b",
                match &self.protocol_b {
                    Some(p) => Value::Str(p.clone()),
                    None => Value::Null,
                },
            ),
            ("eta_b", self.eta_b.map(Value::Float).unwrap_or(Value::Null)),
            (
                "slot_us_b",
                self.slot_b
                    .map(|s| Value::Float(s.as_micros_f64()))
                    .unwrap_or(Value::Null),
            ),
            ("mix", Value::Float(self.mix)),
            ("nodes", Value::Int(self.nodes as i64)),
            ("churn", Value::Float(self.churn)),
            ("collision", Value::Bool(self.collision)),
            ("drift_ppm", Value::Int(self.drift_ppm)),
            ("drop_probability", Value::Float(self.drop_probability)),
            (
                "turnaround_us",
                Value::Float(self.turnaround.as_micros_f64()),
            ),
            (
                "phase_us",
                match self.phase {
                    Some(p) => Value::Float(p.as_micros_f64()),
                    None => Value::Str("random".into()),
                },
            ),
            ("ratio", Value::Float(self.ratio)),
        ]
    }
}

/// Expand the spec's grid into jobs (cartesian product, row-major with the
/// protocol axis outermost). An empty axis yields an empty job list.
pub fn expand(spec: &ScenarioSpec) -> Vec<Job> {
    let g = &spec.grid;
    let phases: Vec<Option<Tick>> = match &g.phase {
        None => vec![None],
        Some(p) => p.iter().copied().map(Some).collect(),
    };
    // optional role-B axes expand to the single symmetric default when
    // unset, so they add no loop levels to pre-role specs
    let protocols_b: Vec<Option<String>> = match &g.protocol_b {
        None => vec![None],
        Some(p) => p.iter().cloned().map(Some).collect(),
    };
    let etas_b: Vec<Option<f64>> = match &g.eta_b {
        None => vec![None],
        Some(e) => e.iter().copied().map(Some).collect(),
    };
    let slots_b: Vec<Option<Tick>> = match &g.slot_b {
        None => vec![None],
        Some(s) => s.iter().copied().map(Some).collect(),
    };
    let mut jobs = Vec::new();
    let mut index = 0;
    for protocol in &g.protocol {
        for protocol_b in &protocols_b {
            for &eta in &g.eta {
                for &eta_b in &etas_b {
                    for &slot in &g.slot {
                        for &slot_b in &slots_b {
                            for &nodes in &g.nodes {
                                for &mix in &g.mix {
                                    for &churn in &g.churn {
                                        for &collision in &g.collision {
                                            for &drift_ppm in &g.drift_ppm {
                                                for &drop_probability in &g.drop_probability {
                                                    for &turnaround in &g.turnaround {
                                                        for &phase in &phases {
                                                            for &ratio in &g.ratio {
                                                                jobs.push(Job {
                                                                    index,
                                                                    protocol: protocol.clone(),
                                                                    eta,
                                                                    slot,
                                                                    protocol_b: protocol_b.clone(),
                                                                    eta_b,
                                                                    slot_b,
                                                                    mix,
                                                                    drift_ppm,
                                                                    drop_probability,
                                                                    turnaround,
                                                                    phase,
                                                                    ratio,
                                                                    nodes,
                                                                    churn,
                                                                    collision,
                                                                });
                                                                index += 1;
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn spec(toml: &str) -> ScenarioSpec {
        ScenarioSpec::from_toml_str(toml).unwrap()
    }

    #[test]
    fn cartesian_product_size_and_order() {
        let s = spec(
            "backend = \"montecarlo\"\n[grid]\nprotocol = [\"disco\", \"u-connect\"]\n\
             eta = [0.01, 0.02, 0.05]\ndrift_ppm = [0, 40]\n",
        );
        let jobs = expand(&s);
        assert_eq!(jobs.len(), 2 * 3 * 2);
        // protocol outermost, drift innermost of the varying axes
        assert_eq!(jobs[0].protocol, "disco");
        assert_eq!((jobs[0].eta, jobs[0].drift_ppm), (0.01, 0));
        assert_eq!((jobs[1].eta, jobs[1].drift_ppm), (0.01, 40));
        assert_eq!((jobs[2].eta, jobs[2].drift_ppm), (0.02, 0));
        assert_eq!(jobs[6].protocol, "u-connect");
        assert!(jobs.iter().enumerate().all(|(i, j)| j.index == i));
    }

    #[test]
    fn empty_axis_empty_sweep() {
        let s = spec("[grid]\neta = []\n");
        assert!(expand(&s).is_empty());
    }

    #[test]
    fn single_point_single_job() {
        let s = spec("[grid]\nprotocol = [\"disco\"]\neta = [0.05]\n");
        let jobs = expand(&s);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].index, 0);
    }

    #[test]
    fn job_hash_independent_of_surrounding_grid() {
        let narrow = spec("[grid]\nprotocol = [\"disco\"]\neta = [0.05]\n");
        let wide = spec("[grid]\nprotocol = [\"disco\", \"u-connect\"]\neta = [0.01, 0.05]\n");
        let j_narrow = &expand(&narrow)[0];
        let j_wide = expand(&wide)
            .into_iter()
            .find(|j| j.protocol == "disco" && j.eta == 0.05)
            .unwrap();
        assert_eq!(
            j_narrow.content_hash(&narrow),
            j_wide.content_hash(&wide),
            "overlapping grid points share cache entries"
        );
        assert_eq!(j_narrow.seed(&narrow), j_wide.seed(&wide));
    }

    #[test]
    fn job_hash_sensitive_to_every_sweep_level_knob() {
        let base = spec("[grid]\nprotocol = [\"disco\"]\neta = [0.05]\n");
        let job = &expand(&base)[0];
        let h = job.content_hash(&base);

        let mut m = base.clone();
        m.sim.seed = 99;
        assert_ne!(job.content_hash(&m), h);
        let mut m = base.clone();
        m.radio.alpha = 2.0;
        assert_ne!(job.content_hash(&m), h);
        let mut m = base.clone();
        m.metric = crate::spec::Metric::TwoWay;
        assert_ne!(job.content_hash(&m), h);
    }
}
