//! Integration: the simulator's channel reproduces the paper's collision
//! model (Eq. 12) statistically, and the Appendix A.5 self-blocking
//! phenomenon appears at the predicted magnitude.

use optimal_nd::core::bounds::collision_probability;
use optimal_nd::core::{BeaconSeq, Schedule, Tick};
use optimal_nd::netsim::{NetSimulator, NodeSpec};
use optimal_nd::protocols::optimal::{self, OptimalParams};
use optimal_nd::protocols::Jittered;
use optimal_nd::sim::{ScheduleBehavior, SimConfig, Topology};

/// Jittered advertisers against a full-time listener: each beacon is sent
/// at an effectively uniform random instant, so the fraction lost to
/// collisions must match ALOHA's 1 − e^{−2(S−1)β}.
#[test]
fn aloha_collision_rate_matches_eq12() {
    let omega = Tick::from_micros(36);
    let s: usize = 6;
    let period = Tick::from_millis(2); // β = 1.8 % per advertiser
    let mut cfg = SimConfig::paper_baseline(Tick::from_secs(4), 71);
    cfg.half_duplex = false; // pure listener; advertisers never listen
    let mut sim = NetSimulator::new(cfg, Topology::full(s + 1));
    // device 0: always-on listener
    let listener = Schedule::rx_only(
        optimal_nd::core::ReceptionWindows::single(
            Tick::ZERO,
            Tick::from_secs(1),
            Tick::from_secs(1),
        )
        .unwrap(),
    );
    sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
        listener,
    ))));
    for i in 0..s {
        let b = BeaconSeq::uniform(1, period, omega, Tick::from_micros(i as u64 * 53)).unwrap();
        let adv = ScheduleBehavior::new(Schedule::tx_only(b));
        // jitter by a full period: the Poisson-field idealization of Eq. 12
        sim.add_node(NodeSpec::always_on(Box::new(Jittered::new(adv, period))));
    }
    let report = sim.run();
    let beta = omega.as_nanos() as f64 / period.as_nanos() as f64;
    // Collisions at the listener involve any pair of the s advertisers:
    // a beacon collides if any of the other s−1 overlap it.
    let predicted = collision_probability(s as u32, beta);
    let receivable = report.packets.received + report.packets.lost_collision;
    let measured = report.packets.lost_collision as f64 / receivable as f64;
    assert!(receivable > 5000, "need statistics, got {receivable}");
    assert!(
        (measured - predicted).abs() < predicted * 0.35,
        "measured {measured:.4} vs Eq.12 {predicted:.4}"
    );
}

/// With collisions disabled the same setup loses nothing.
#[test]
fn no_losses_without_collisions() {
    let omega = Tick::from_micros(36);
    let mut cfg = SimConfig::paper_baseline(Tick::from_millis(500), 13);
    cfg.collisions = false;
    cfg.half_duplex = false;
    let mut sim = NetSimulator::new(cfg, Topology::full(3));
    let listener = Schedule::rx_only(
        optimal_nd::core::ReceptionWindows::single(
            Tick::ZERO,
            Tick::from_millis(100),
            Tick::from_millis(100),
        )
        .unwrap(),
    );
    sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
        listener,
    ))));
    for i in 0..2 {
        let b =
            BeaconSeq::uniform(1, Tick::from_millis(1), omega, Tick::from_micros(i * 17)).unwrap();
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
            Schedule::tx_only(b),
        ))));
    }
    let report = sim.run();
    assert_eq!(report.packets.lost_collision, 0);
    assert!(report.packets.received > 0);
}

/// Appendix A.5: with identical sequences on both devices, one beacon per
/// worst-case period blanks the own window; the measured self-blocking
/// loss matches `Schedule::self_blocking_fraction`.
#[test]
fn self_blocking_measured_at_predicted_magnitude() {
    let opt = optimal::symmetric(OptimalParams::paper_default(), 0.1).unwrap();
    // phase-align both devices so beacons land in the peer's window at the
    // same instants the own beacon blanks it: run many phases and count
    let mut blocked_phases = 0;
    let mut total = 0;
    for i in 0..40 {
        let phase = Tick(opt.schedule.windows.as_ref().unwrap().period().as_nanos() * i / 40);
        let cfg = SimConfig::paper_baseline(Tick(opt.predicted_latency.as_nanos() * 2), 5);
        let mut sim = NetSimulator::new(cfg, Topology::full(2));
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
            opt.schedule.clone(),
        ))));
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
            opt.schedule.clone(),
            phase,
        ))));
        let report = sim.run();
        total += 1;
        if report.packets.lost_self_blocking > 0 {
            blocked_phases += 1;
        }
    }
    // the per-beacon blanking probability is ~ω/Σd ≈ 1 % per period at
    // η = 10 % — across two worst-case periods and two devices some phases
    // must see it, but most must not
    assert!(blocked_phases > 0, "blanking never observed");
    assert!(
        blocked_phases < total,
        "blanking observed at every phase — too frequent"
    );
}

/// Fault injection behaves like an independent thinning: with drop
/// probability p the reception count scales by ≈ (1−p).
#[test]
fn drop_probability_thins_receptions() {
    let omega = Tick::from_micros(36);
    let run = |p: f64| -> u64 {
        let cfg = SimConfig::paper_baseline(Tick::from_secs(1), 9).with_drop_probability(p);
        let mut sim = NetSimulator::new(cfg, Topology::full(2));
        let listener = Schedule::rx_only(
            optimal_nd::core::ReceptionWindows::single(
                Tick::ZERO,
                Tick::from_millis(10),
                Tick::from_millis(10),
            )
            .unwrap(),
        );
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
            listener,
        ))));
        let b = BeaconSeq::uniform(1, Tick::from_millis(1), omega, Tick::ZERO).unwrap();
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
            Schedule::tx_only(b),
        ))));
        sim.run().packets.received
    };
    let full = run(0.0);
    let half = run(0.5);
    assert!(full > 900, "baseline {full}");
    let ratio = half as f64 / full as f64;
    assert!((ratio - 0.5).abs() < 0.08, "thinning ratio {ratio}");
}
