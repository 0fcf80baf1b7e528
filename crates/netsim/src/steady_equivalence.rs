//! Fast-forward-vs-full equivalence.
//!
//! The steady-state fast-forward ([`crate::steady`]) must be invisible in
//! the results: randomized cohorts at N ∈ {2, 8, 33} — every registry
//! protocol, collisions and half-duplex on and off, all three overlap
//! models, an ideal and a BLE-like radio (whose turnaround exceeds the
//! packet, so same-instant event order matters for blanking), full-mesh
//! and clustered topologies, stop-when-complete on and off, stable,
//! settling and staggered churn, mixed-role cohorts, µs-aligned and
//! lock-step phases (same-instant ties everywhere), and fault injection
//! (the ineligible path) — must give field-identical [`CohortReport`]s
//! with the skip on and with every period simulated. The full simulation is reachable from
//! tests only ([`NetSimulator::full_simulation`]), which is why this
//! suite lives inside the crate.

use crate::engine::NetSimulator;
use crate::{ChurnPlan, CohortReport, NodeSpec};
use nd_core::coverage::OverlapModel;
use nd_core::schedule::Schedule;
use nd_core::time::Tick;
use nd_core::RadioParams;
use nd_protocols::registry::ProtocolKind;
use nd_sim::{Behavior, Drifting, ScheduleBehavior, SimConfig, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COHORTS: [usize; 3] = [2, 8, 33];
const OMEGA: Tick = Tick::from_micros(36);

/// One randomized cohort, minus its size.
#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    sched: Schedule,
    /// The schedule of the highest third of the ids (mixed-role cohorts;
    /// the same as `sched` otherwise).
    sched_b: Schedule,
    /// The cohort's joint period H.
    period: Tick,
    horizon: Tick,
    collisions: bool,
    half_duplex: bool,
    overlap: OverlapModel,
    ble: bool,
    clustered: bool,
    stop: bool,
    /// 0 = stable, 1 = settling (early joins and leaves), 2 = staggered.
    churn: u8,
    drop: f64,
    /// µs-aligned phases: coincidence-prone same-instant ties.
    quantized: bool,
    /// Phases and join instants from a handful of values, so nodes run in
    /// lock-step and tie at every event.
    lockstep: bool,
}

fn plan(case: &Case, n: usize, rng: &mut StdRng) -> ChurnPlan {
    match case.churn {
        0 => ChurnPlan::stable(n),
        1 => {
            // a third of the cohort joins late and some leave again, all
            // within the first third of the horizon: the plan settles and
            // the skip may engage after it
            let third = case.horizon.0 / 3;
            let mut p = ChurnPlan::stable(n);
            for i in (n - n / 3)..n {
                let mut join = rng.gen_range(0..third / 2);
                if case.lockstep {
                    join -= join % case.period.0.min(third / 2).max(1);
                }
                p.joins[i] = Tick(join);
                if rng.gen_bool(0.5) {
                    p.leaves[i] = Some(Tick(rng.gen_range(join + 1..third)));
                }
            }
            p
        }
        _ => ChurnPlan::staggered(n, 0.5, case.horizon, rng),
    }
}

fn run(case: &Case, n: usize, full: bool) -> (CohortReport, u64) {
    let radio = if case.ble {
        RadioParams::ble_like()
    } else {
        RadioParams::paper_default()
    };
    let mut cfg = SimConfig::paper_baseline(case.horizon, case.seed).with_radio(radio);
    cfg.collisions = case.collisions;
    cfg.half_duplex = case.half_duplex;
    cfg.overlap = case.overlap;
    cfg.drop_probability = case.drop;
    let topo = if case.clustered {
        Topology::clusters((0..n as u32).map(|i| i % 3).collect())
    } else {
        Topology::full(n)
    };
    let mut sim = NetSimulator::new(cfg, topo);
    if full {
        sim.full_simulation();
    }
    sim.stop_when_all_discovered(case.stop);
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x5eed);
    let plan = plan(case, n, &mut rng);
    for i in 0..n {
        let phase = if case.lockstep {
            Tick(case.period.0.min(case.horizon.0) / 4 * rng.gen_range(0..4u64))
        } else if case.quantized {
            Tick::from_micros(rng.gen_range(0..case.period.0.min(case.horizon.0) / 1000))
        } else {
            Tick(rng.gen_range(0..case.period.0.min(case.horizon.0)))
        };
        let sched = if i >= n - n / 3 {
            &case.sched_b
        } else {
            &case.sched
        };
        let behavior = ScheduleBehavior::with_phase(sched.clone(), phase).labeled("p");
        sim.add_node(NodeSpec::windowed(
            Box::new(behavior),
            plan.joins[i],
            plan.leaves[i],
        ));
    }
    sim.run_counted()
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

/// Run `case` at every cohort size both ways; returns how many sizes
/// engaged the skip.
fn check(case: &Case) -> usize {
    let mut engaged = 0;
    for n in COHORTS {
        let (full, full_skips) = run(case, n, true);
        let (fast, skips) = run(case, n, false);
        assert_eq!(full_skips, 0, "the reference must simulate every period");
        assert_reports_equal(&fast, &full, &format!("n={n} skipped={skips} {case:?}"));
        if case.drop > 0.0 {
            assert_eq!(skips, 0, "fault injection must take the ineligible path");
        }
        engaged += usize::from(skips > 0);
    }
    engaged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_forward_reports_equal_full_simulation(
        seed in 0u64..1_000_000,
        proto in 0usize..6,
        eta_pm in 60u64..400,
        // the second role: same protocol at η·mix/4 (mix = 4: one role)
        mix in 2u64..8,
        slot_us in 150u64..1500,
        // collisions, half-duplex, BLE radio, clustered, stop, quantized,
        // lock-step
        flags in 0u64..128,
        overlap in 0usize..3,
        churn in 0u64..3,
        faulty in 0u64..8,
        periods in 4u64..10,
        extra_pm in 0u64..1000,
    ) {
        let flag = |bit: u32| flags >> bit & 1 == 1;
        let kind = ProtocolKind::all()[proto];
        let Ok(sched) = kind.schedule_for_eta(eta_pm as f64 / 1000.0, Tick::from_micros(slot_us), OMEGA) else {
            return; // infeasible parametrization: nothing to compare
        };
        let eta_b = (eta_pm as f64 / 1000.0 * (mix as f64 / 4.0)).min(0.6);
        let sched_b = if mix == 4 {
            sched.clone()
        } else {
            match kind.schedule_for_eta(eta_b, Tick::from_micros(slot_us), OMEGA) {
                Ok(b) => b,
                Err(_) => sched.clone(),
            }
        };
        let period = [&sched, &sched_b]
            .map(|s| ScheduleBehavior::new(s.clone()).steady_period().unwrap())
            .into_iter()
            .try_fold(Tick(1), |h, p| h.checked_lcm(p))
            .unwrap_or(Tick(u64::MAX / 16));
        // long joint periods (Disco's p₁·p₂ slots) are capped: those runs
        // take the ineligible path, which must agree too
        let horizon = Tick(
            period
                .0
                .saturating_mul(periods)
                .saturating_add(period.0 / 1000 * extra_pm)
                .min(400_000_000),
        );
        let case = Case {
            seed,
            sched,
            sched_b,
            period,
            horizon,
            collisions: flag(0),
            half_duplex: flag(1),
            overlap: [OverlapModel::Start, OverlapModel::AnyOverlap, OverlapModel::FullPacket][overlap],
            ble: flag(2),
            clustered: flag(3),
            stop: flag(4),
            churn: churn as u8,
            drop: if faulty == 0 { 0.2 } else { 0.0 },
            quantized: flag(5),
            lockstep: flag(6),
        };
        check(&case);
    }
}

fn dense_case(n_periods: u64) -> Case {
    let sched = ProtocolKind::OptimalSlotless
        .schedule_for_eta(0.1, Tick::from_millis(1), OMEGA)
        .unwrap();
    let period = ScheduleBehavior::new(sched.clone())
        .steady_period()
        .unwrap();
    Case {
        seed: 9001,
        sched_b: sched.clone(),
        sched,
        period,
        horizon: period * n_periods,
        collisions: true,
        half_duplex: true,
        overlap: OverlapModel::Start,
        ble: false,
        clustered: false,
        stop: true,
        churn: 0,
        drop: 0.0,
        quantized: false,
        lockstep: false,
    }
}

/// A steady dense cohort — the benchmark's shape: a full mesh where
/// collisions leave pairs undiscovered for good — skips most of its
/// horizon and still matches the full run.
#[test]
fn steady_dense_cohort_engages_the_skip() {
    let case = dense_case(14);
    let (full, _) = run(&case, 64, true);
    let (fast, skips) = run(&case, 64, false);
    assert_reports_equal(&fast, &full, "dense n=64");
    assert!(skips > 0, "a steady dense cohort must fast-forward");
    assert!(full.discovered_fraction(crate::PairMetric::OneWay) < 1.0);
    // a pair discovers itself and stops early; the larger cohorts never
    // complete and skip
    assert_eq!(check(&case), 2, "n = 8 and n = 33 engage");
}

/// Ineligible cohorts run every period: faults, a horizon under four
/// periods, and a behaviour without a steady period.
#[test]
fn ineligible_cohorts_simulate_every_period() {
    let mut faulty = dense_case(14);
    faulty.drop = 0.1;
    assert_eq!(check(&faulty), 0);
    assert_eq!(check(&dense_case(3)), 0);

    let case = dense_case(14);
    let mut sim = NetSimulator::new(
        SimConfig::paper_baseline(case.horizon, 1).with_radio(RadioParams::paper_default()),
        Topology::full(2),
    );
    sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
        case.sched.clone(),
    ))));
    sim.add_node(NodeSpec::always_on(Box::new(Drifting::ppm(
        ScheduleBehavior::new(case.sched.clone()),
        20,
    ))));
    assert_eq!(sim.run_counted().1, 0, "a drifting node has no period");
}

/// The wrappers the engine sees: a boxed, labeled schedule keeps its
/// period (a non-forwarding `Box` impl would switch the skip off
/// silently); a drifting clock (≠ 0 ppm) or beacon jitter has none.
#[test]
fn wrappers_forward_or_withhold_the_period() {
    let case = dense_case(14);
    let plain = ScheduleBehavior::new(case.sched.clone());
    let boxed: Box<dyn Behavior> = Box::new(ScheduleBehavior::new(case.sched.clone()).labeled("x"));
    assert_eq!(boxed.steady_period(), Some(case.period));
    assert_eq!(plain.steady_period(), Some(case.period));
    let drifting = Drifting::ppm(ScheduleBehavior::new(case.sched.clone()), 20);
    assert_eq!(drifting.steady_period(), None);
    let jittered = nd_protocols::jitter::Jittered::new(
        ScheduleBehavior::new(case.sched.clone()),
        Tick::from_micros(10),
    );
    assert_eq!(jittered.steady_period(), None);
}
