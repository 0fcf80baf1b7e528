//! Monte-Carlo harness: repeated randomized-phase simulations on
//! `nd-netsim`, for the statistics the closed-form analysis cannot give
//! (collisions among S > 2 devices, fault injection, reactive protocols).
//!
//! Every harness here — and the sweep's Monte-Carlo backend — runs the
//! same trial loop with the same seed path: trial `t` simulates with seed
//! [`stream_seed`]`(root, t)`, and whatever the trials draw up front
//! (random phases) comes from one stream seeded with the root itself.

use nd_core::schedule::Schedule;
use nd_core::seed::stream_seed;
use nd_core::time::Tick;
use nd_netsim::{CohortReport, NetSimulator, NodeSpec};
use nd_sim::{Behavior, ScheduleBehavior, SimConfig, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary statistics over a set of per-trial latencies.
#[derive(Clone, Debug)]
pub struct LatencySummary {
    /// Number of trials.
    pub trials: usize,
    /// Trials that never discovered within the horizon.
    pub failures: usize,
    /// Mean over successful trials (seconds).
    pub mean: f64,
    /// Percentiles over successful trials (seconds): (p50, p95, p99).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed latency.
    pub max: f64,
}

impl LatencySummary {
    /// Aggregate a list of optional latencies (None = not discovered).
    pub fn from_latencies(latencies: &[Option<Tick>]) -> Self {
        let mut ok: Vec<f64> = latencies
            .iter()
            .filter_map(|l| l.map(|t| t.as_secs_f64()))
            .collect();
        ok.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let failures = latencies.len() - ok.len();
        let pct = |p: f64| -> f64 {
            if ok.is_empty() {
                f64::NAN
            } else {
                ok[((ok.len() as f64 - 1.0) * p).round() as usize]
            }
        };
        LatencySummary {
            trials: latencies.len(),
            failures,
            mean: if ok.is_empty() {
                f64::NAN
            } else {
                ok.iter().sum::<f64>() / ok.len() as f64
            },
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: ok.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// Fraction of trials that failed to discover.
    pub fn failure_rate(&self) -> f64 {
        self.failures as f64 / self.trials as f64
    }
}

/// Which discovery completion a pair trial waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairMetric {
    /// Device 1 discovers device 0 (unidirectional, Theorem 5.4).
    OneWay,
    /// Either direction succeeds (Appendix C metric).
    EitherWay,
    /// Both directions succeed (Theorems 5.5/5.7 metric).
    TwoWay,
}

impl PairMetric {
    /// This metric's latency for the pair (device 0, device 1).
    fn latency(self, report: &CohortReport) -> Option<Tick> {
        match self {
            PairMetric::OneWay => report.discovery.one_way(1, 0),
            PairMetric::EitherWay => report.discovery.either_way(0, 1),
            PairMetric::TwoWay => report.discovery.two_way(0, 1),
        }
    }
}

/// The trial loop under [`pair_trial_loop`] and the group rates: `trials`
/// runs of the always-on cohort `devices` builds, seeded as described
/// there, each report handed to `visit` in trial order. With `stop` set,
/// a run ends once every ordered pair has discovered.
fn run_trials(
    cfg: &SimConfig,
    trials: usize,
    stop: bool,
    mut devices: impl FnMut(&mut StdRng) -> Vec<Box<dyn Behavior>>,
    mut visit: impl FnMut(CohortReport),
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for trial in 0..trials {
        let nodes = devices(&mut rng);
        let mut cfg_t = cfg.clone();
        cfg_t.seed = stream_seed(cfg.seed, trial as u64);
        let mut sim = NetSimulator::new(cfg_t, Topology::full(nodes.len()));
        for behavior in nodes {
            sim.add_node(NodeSpec::always_on(behavior));
        }
        sim.stop_when_all_discovered(stop);
        visit(sim.run());
    }
}

/// The Monte-Carlo trial loop for a pair, shared by [`pair_trials`] and the
/// sweep's Monte-Carlo backend: `trials` always-on runs of device 0 and
/// device 1 from `pair`, each report handed to `visit` with its latency
/// under `metric`. Runs stop at two-way discovery under
/// [`PairMetric::TwoWay`].
///
/// Trial `t` runs with seed `stream_seed(cfg.seed, t)`; `pair` draws any
/// randomness (phases) from one stream seeded with `cfg.seed` that runs
/// through all trials in order.
pub fn pair_trial_loop(
    cfg: &SimConfig,
    trials: usize,
    metric: PairMetric,
    mut pair: impl FnMut(&mut StdRng) -> [Box<dyn Behavior>; 2],
    mut visit: impl FnMut(Option<Tick>, &CohortReport),
) {
    run_trials(
        cfg,
        trials,
        metric == PairMetric::TwoWay,
        |rng| pair(rng).into(),
        |report| visit(metric.latency(&report), &report),
    );
}

/// Run `trials` pair simulations with independently random phases for both
/// schedules; returns per-trial latency (None if not discovered within the
/// configured horizon).
pub fn pair_trials(
    sched_a: &Schedule,
    sched_b: &Schedule,
    metric: PairMetric,
    cfg: &SimConfig,
    trials: usize,
) -> Vec<Option<Tick>> {
    let mut out = Vec::with_capacity(trials);
    pair_trial_loop(
        cfg,
        trials,
        metric,
        |rng| {
            let phase_a = random_phase(sched_a, rng);
            let phase_b = random_phase(sched_b, rng);
            [
                Box::new(ScheduleBehavior::with_phase(sched_a.clone(), phase_a)),
                Box::new(ScheduleBehavior::with_phase(sched_b.clone(), phase_b)),
            ]
        },
        |latency, _| out.push(latency),
    );
    out
}

/// Fraction of pair discoveries (over random phases) completing within
/// `deadline`, among `s` devices all running clones of `schedule` with
/// random phases — the Appendix B failure-rate experiment.
pub fn group_success_rate(
    schedule: &Schedule,
    s: usize,
    deadline: Tick,
    cfg: &SimConfig,
    trials: usize,
    jitter: Option<Tick>,
) -> f64 {
    group_rate(cfg, trials, deadline, |rng| {
        (0..s)
            .map(|_| {
                let base =
                    ScheduleBehavior::with_phase(schedule.clone(), random_phase(schedule, rng));
                match jitter {
                    Some(j) => Box::new(nd_protocols::Jittered::new(base, j)) as Box<dyn Behavior>,
                    None => Box::new(base),
                }
            })
            .collect()
    })
}

/// Like [`group_success_rate`], but with an arbitrary behaviour factory:
/// `make(trial, device)` builds each device's behaviour (drawing its own
/// randomness from construction parameters if needed).
pub fn group_success_rate_factory(
    make: &mut dyn FnMut(usize, usize) -> Box<dyn Behavior>,
    s: usize,
    deadline: Tick,
    cfg: &SimConfig,
    trials: usize,
) -> f64 {
    let mut trial = 0;
    group_rate(cfg, trials, deadline, |_| {
        let nodes = (0..s).map(|dev| make(trial, dev)).collect();
        trial += 1;
        nodes
    })
}

/// Share of ordered pairs, over all trials, discovered within `deadline`.
fn group_rate(
    cfg: &SimConfig,
    trials: usize,
    deadline: Tick,
    devices: impl FnMut(&mut StdRng) -> Vec<Box<dyn Behavior>>,
) -> f64 {
    let mut attempts = 0u64;
    let mut successes = 0u64;
    run_trials(cfg, trials, false, devices, |report| {
        let s = report.len();
        for a in 0..s {
            for b in (0..s).filter(|&b| b != a) {
                attempts += 1;
                if report
                    .discovery
                    .one_way(a, b)
                    .is_some_and(|t| t <= deadline)
                {
                    successes += 1;
                }
            }
        }
    });
    successes as f64 / attempts as f64
}

/// A uniformly random phase over the schedule's longer period.
pub fn random_phase(schedule: &Schedule, rng: &mut StdRng) -> Tick {
    let period = schedule
        .beacons
        .as_ref()
        .map(|b| b.period())
        .into_iter()
        .chain(schedule.windows.as_ref().map(|c| c.period()))
        .max()
        .unwrap_or(Tick(1));
    Tick(rng.gen_range(0..period.as_nanos().max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_protocols::optimal::{self, OptimalParams};

    fn sim_cfg(ms: u64) -> SimConfig {
        // pair analysis under the paper's assumptions: no collisions
        // between the pair (A.5 assumption), ideal radio
        let mut cfg = SimConfig::paper_baseline(Tick::from_millis(ms), 11);
        cfg.collisions = false;
        cfg.half_duplex = false;
        cfg
    }

    #[test]
    fn summary_statistics() {
        let lat: Vec<Option<Tick>> = (1..=100)
            .map(|i| Some(Tick::from_millis(i)))
            .chain([None])
            .collect();
        let s = LatencySummary::from_latencies(&lat);
        assert_eq!(s.trials, 101);
        assert_eq!(s.failures, 1);
        assert!((s.p50 - 0.050).abs() < 2e-3);
        assert!((s.p95 - 0.095).abs() < 2e-3);
        assert!((s.max - 0.1).abs() < 1e-12);
        assert!((s.failure_rate() - 1.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn pair_trials_stay_under_worst_case() {
        let opt = optimal::symmetric(OptimalParams::paper_default(), 0.1).unwrap();
        let horizon = Tick(opt.predicted_latency.as_nanos() * 3);
        let mut cfg = sim_cfg(1);
        cfg.t_end = horizon;
        let lat = pair_trials(&opt.schedule, &opt.schedule, PairMetric::TwoWay, &cfg, 25);
        let summary = LatencySummary::from_latencies(&lat);
        assert_eq!(summary.failures, 0, "deterministic protocol never fails");
        assert!(
            summary.max <= opt.predicted_latency.as_secs_f64() * 1.001,
            "max {} vs predicted {}",
            summary.max,
            opt.predicted_latency
        );
    }

    #[test]
    fn one_way_faster_than_two_way() {
        let opt = optimal::symmetric(OptimalParams::paper_default(), 0.1).unwrap();
        let mut cfg = sim_cfg(1);
        cfg.t_end = Tick(opt.predicted_latency.as_nanos() * 3);
        let one = LatencySummary::from_latencies(&pair_trials(
            &opt.schedule,
            &opt.schedule,
            PairMetric::EitherWay,
            &cfg,
            20,
        ));
        let two = LatencySummary::from_latencies(&pair_trials(
            &opt.schedule,
            &opt.schedule,
            PairMetric::TwoWay,
            &cfg,
            20,
        ));
        assert!(one.mean <= two.mean + 1e-12);
    }

    #[test]
    fn group_success_rate_bounds() {
        let opt = optimal::symmetric(OptimalParams::paper_default(), 0.1).unwrap();
        let mut cfg = sim_cfg(1);
        cfg.collisions = true;
        cfg.half_duplex = true;
        cfg.t_end = Tick(opt.predicted_latency.as_nanos() * 2);
        let rate = group_success_rate(&opt.schedule, 3, opt.predicted_latency, &cfg, 4, None);
        assert!((0.0..=1.0).contains(&rate));
        assert!(rate > 0.5, "most discoveries succeed, got {rate}");
    }
}
