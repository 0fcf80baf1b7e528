//! Cross-validation between the exact engine, the naive oracle, and the
//! discrete-event simulator.
//!
//! Three independent implementations of "when does F first hear E":
//!
//! 1. the coverage-map sweep ([`crate::exact::one_way_worst_case`]),
//! 2. the naive beacon-walk oracle
//!    ([`crate::exact::naive_first_discovery`]),
//! 3. the event-driven simulator (`nd-netsim`, as an always-on pair).
//!
//! [`cross_validate`] runs all three over a grid of phases and reports any
//! disagreement — the repository's deepest correctness check, used by the
//! integration tests and the `achieve` experiment.

use crate::exact::{naive_first_discovery, one_way_coverage, AnalysisConfig};
use nd_core::error::NdError;
use nd_core::schedule::Schedule;
use nd_core::time::Tick;
use nd_netsim::{NetSimulator, NodeSpec};
use nd_sim::{ScheduleBehavior, SimConfig, Topology};

/// The outcome of a cross-validation run.
#[derive(Clone, Debug)]
pub struct Verification {
    /// The exact engine's worst case.
    pub analytical_worst: Tick,
    /// Largest latency seen by the simulator over the phase grid.
    pub sim_max: Tick,
    /// Largest latency seen by the naive oracle over the phase grid.
    pub oracle_max: Tick,
    /// Number of phases where the simulator and the oracle disagreed.
    pub mismatches: usize,
    /// Number of phases probed.
    pub phases: usize,
}

impl Verification {
    /// `true` when all three implementations are consistent: no
    /// sim/oracle mismatch and neither exceeds the analytical worst case.
    pub fn consistent(&self) -> bool {
        self.mismatches == 0
            && self.sim_max <= self.analytical_worst
            && self.oracle_max <= self.analytical_worst
    }
}

/// Cross-validate one discovery direction (device 0 transmits with
/// `sender`'s beacons, device 1 listens with `receiver`'s windows) over
/// `n_phases` equally spaced receiver phases.
pub fn cross_validate(
    sender: &Schedule,
    receiver: &Schedule,
    cfg: &AnalysisConfig,
    n_phases: usize,
) -> Result<Verification, NdError> {
    let beacons = sender
        .beacons
        .as_ref()
        .ok_or_else(|| NdError::AnalysisFailed("sender never transmits".into()))?;
    let windows = receiver
        .windows
        .as_ref()
        .ok_or_else(|| NdError::AnalysisFailed("receiver never listens".into()))?;
    let cc = one_way_coverage(beacons, windows, cfg)?;
    let horizon = Tick(cc.worst_covered.as_nanos() * 2 + windows.period().as_nanos());

    let mut sim_max = Tick::ZERO;
    let mut oracle_max = Tick::ZERO;
    let mut mismatches = 0usize;
    let period = windows.period();
    for i in 0..n_phases {
        let phase = Tick(period.as_nanos() * i as u64 / n_phases as u64);
        // oracle: windows shifted so their origin is at `phase`
        let oracle = naive_first_discovery(beacons, windows, phase, horizon, cfg);
        // simulator: receiver with schedule phase `period − phase` begins
        // its period `phase` ticks *later*, matching the oracle convention
        let sim_phase = (period - phase).rem_euclid(period);
        let mut sim_cfg = SimConfig::paper_baseline(horizon, 17 + i as u64);
        sim_cfg.radio.omega = cfg.omega;
        sim_cfg.overlap = cfg.model;
        sim_cfg.collisions = false;
        sim_cfg.half_duplex = false;
        let mut sim = NetSimulator::new(sim_cfg, Topology::full(2));
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
            Schedule::tx_only(beacons.clone()),
        ))));
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
            Schedule::rx_only(windows.clone()),
            sim_phase,
        ))));
        let report = sim.run();
        let sim_t = report.discovery.one_way(1, 0);
        match (oracle, sim_t) {
            (Some(a), Some(b)) => {
                if a != b {
                    mismatches += 1;
                }
                oracle_max = oracle_max.max(a);
                sim_max = sim_max.max(b);
            }
            (None, None) => {}
            _ => mismatches += 1,
        }
    }
    Ok(Verification {
        analytical_worst: cc.worst_covered,
        sim_max,
        oracle_max,
        mismatches,
        phases: n_phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_protocols::optimal::{self, OptimalParams};
    use nd_protocols::{DiffCode, Searchlight};

    #[test]
    fn optimal_construction_cross_validates() {
        let (tx, rx) = optimal::unidirectional(OptimalParams::paper_default(), 0.02, 0.05).unwrap();
        let v = cross_validate(
            &tx.schedule,
            &rx.schedule,
            &AnalysisConfig::paper_default(),
            53,
        )
        .unwrap();
        assert!(v.consistent(), "{v:?}");
        // the worst case is actually approached on the grid (within a gap)
        assert!(v.sim_max.as_nanos() as f64 > 0.5 * v.analytical_worst.as_nanos() as f64);
    }

    #[test]
    fn searchlight_cross_validates() {
        let s = Searchlight::new(6, Tick::from_millis(1), Tick::from_micros(36)).unwrap();
        let sched = s.schedule().unwrap();
        let v = cross_validate(&sched, &sched, &AnalysisConfig::paper_default(), 31).unwrap();
        assert!(v.consistent(), "{v:?}");
    }

    #[test]
    fn diffcode_cross_validates() {
        let d = DiffCode::new(
            7,
            vec![1, 2, 4],
            Tick::from_millis(1),
            Tick::from_micros(36),
        )
        .unwrap();
        let sched = d.schedule().unwrap();
        let v = cross_validate(&sched, &sched, &AnalysisConfig::paper_default(), 29).unwrap();
        assert!(v.consistent(), "{v:?}");
    }
}
