//! Wheel-vs-heap equivalence and queue selection.
//!
//! `NetSimulator::new` runs cohorts below [`WHEEL_MIN_NODES`] nodes on the
//! binary heap and larger ones on the timing wheel, so both queues carry
//! production traffic and must agree exactly. The `EventQueue` unit tests
//! prove they pop byte-identical event sequences for raw push mixes; this
//! suite closes the loop at engine level. Randomized cohorts on both
//! sides of the threshold — random schedules, phases and staggered churn
//! plans — must produce field-identical [`CohortReport`]s with each queue
//! forced, and on a clustered topology the sharded merge (whose small
//! shards pick the heap) must match the whole-cohort run too. Any
//! divergence in event *order* (collision outcomes, half-duplex blanking,
//! RNG draw order, early-stop instants) would surface as a report
//! difference. Forcing a queue is test-only
//! ([`NetSimulator::force_queue`]), which is why this suite lives inside
//! the crate.

use crate::event::WHEEL_MIN_NODES;
use crate::{run_sharded_collect, ChurnPlan, CohortReport, NetSimulator, NodeSpec};
use nd_core::schedule::{BeaconSeq, ReceptionWindows, Schedule};
use nd_core::time::Tick;
use nd_sim::{ScheduleBehavior, SimConfig, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const COHORTS: [usize; 5] = [2, 8, WHEEL_MIN_NODES - 1, WHEEL_MIN_NODES, 33];

fn cfg(horizon: Tick, seed: u64) -> SimConfig {
    let mut radio = nd_core::RadioParams::paper_default();
    radio.omega = Tick::from_micros(4);
    SimConfig::paper_baseline(horizon, seed).with_radio(radio)
}

/// A randomized symmetric schedule: one beacon per period plus one
/// listening window, dimensions drawn from the case's parameters.
fn sched(period_us: u64, duty_pm: u64) -> Schedule {
    let period = Tick::from_micros(period_us);
    let omega = Tick::from_micros(4);
    let window = Tick(
        (period.as_nanos() * duty_pm / 1000).clamp(omega.as_nanos() * 2, period.as_nanos() / 2),
    );
    Schedule::full(
        BeaconSeq::uniform(1, period, omega, Tick::ZERO).unwrap(),
        ReceptionWindows::single(Tick(period.as_nanos() / 2), window, period).unwrap(),
    )
}

fn spec(i: usize, period_us: u64, duty_pm: u64, plan: &ChurnPlan) -> NodeSpec {
    let phase = Tick(((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (period_us * 1000));
    NodeSpec::windowed(
        Box::new(ScheduleBehavior::with_phase(
            sched(period_us, duty_pm),
            phase,
        )),
        plan.joins[i],
        plan.leaves[i],
    )
}

#[allow(clippy::too_many_arguments)]
fn run_cohort(
    n: usize,
    topo: &Topology,
    seed: u64,
    period_us: u64,
    duty_pm: u64,
    plan: &ChurnPlan,
    horizon: Tick,
    wheel: bool,
) -> CohortReport {
    let mut sim = NetSimulator::new(cfg(horizon, seed), topo.clone());
    sim.force_queue(wheel);
    sim.stop_when_all_discovered(true);
    for i in 0..n {
        sim.add_node(spec(i, period_us, duty_pm, plan));
    }
    sim.run()
}

fn assert_reports_equal(a: &CohortReport, b: &CohortReport, what: &str) {
    assert_eq!(a.elapsed, b.elapsed, "{what}: elapsed");
    assert_eq!(a.events, b.events, "{what}: events");
    assert_eq!(a.discovery, b.discovery, "{what}: discovery");
    assert_eq!(a.packets, b.packets, "{what}: packets");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.joins, b.joins, "{what}: joins");
    assert_eq!(a.leaves, b.leaves, "{what}: leaves");
    assert_eq!(a.cluster, b.cluster, "{what}: cluster");
}

#[test]
fn new_picks_the_queue_from_the_cohort_size() {
    let pick =
        |n: usize| NetSimulator::new(cfg(Tick::from_millis(1), 1), Topology::full(n)).uses_wheel();
    assert!(!pick(2));
    assert!(!pick(WHEEL_MIN_NODES - 1), "heap just below the threshold");
    assert!(pick(WHEEL_MIN_NODES), "wheel from the threshold up");
    assert!(pick(1024));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full-mesh cohorts under randomized churn: the wheel and the heap
    /// must agree field for field at every N.
    #[test]
    fn wheel_and_heap_reports_agree_under_churn(
        seed in 0u64..1_000_000,
        churn_seed in 0u64..1_000_000,
        fraction in 0.0f64..0.8,
        period_us in 300u64..3000,
        duty_pm in 100u64..600,
    ) {
        let horizon = Tick::from_millis(30);
        for n in COHORTS {
            let plan = ChurnPlan::staggered(
                n, fraction, horizon, &mut StdRng::seed_from_u64(churn_seed));
            let topo = Topology::full(n);
            let wheel = run_cohort(n, &topo, seed, period_us, duty_pm, &plan, horizon, true);
            let heap = run_cohort(n, &topo, seed, period_us, duty_pm, &plan, horizon, false);
            assert_reports_equal(&wheel, &heap, &format!("n={n} wheel vs heap"));
            prop_assert!(wheel.events > 0, "n={n}: the run must do something");
        }
    }

    /// Clustered cohorts under churn: the sharded run's merged report
    /// equals the whole-cohort run on both queue implementations.
    #[test]
    fn sharded_merge_agrees_with_both_queues_under_churn(
        seed in 0u64..1_000_000,
        churn_seed in 0u64..1_000_000,
        fraction in 0.0f64..0.8,
        period_us in 300u64..3000,
        duty_pm in 100u64..600,
    ) {
        let horizon = Tick::from_millis(30);
        for n in COHORTS {
            let clusters = (n / 4).clamp(1, 4) as u32;
            let plan = ChurnPlan::staggered(
                n, fraction, horizon, &mut StdRng::seed_from_u64(churn_seed));
            let topo = Topology::clusters((0..n as u32).map(|i| i % clusters).collect());
            let wheel = run_cohort(n, &topo, seed, period_us, duty_pm, &plan, horizon, true);
            let heap = run_cohort(n, &topo, seed, period_us, duty_pm, &plan, horizon, false);
            assert_reports_equal(&wheel, &heap, &format!("n={n} wheel vs heap"));
            let config = cfg(horizon, seed);
            for threads in [1, 4] {
                let sharded = run_sharded_collect(&config, &topo, true, threads, |g| {
                    spec(g, period_us, duty_pm, &plan)
                });
                assert_reports_equal(
                    &sharded.merge(&topo), &wheel,
                    &format!("n={n} threads={threads} sharded vs unsharded"));
            }
        }
    }
}
