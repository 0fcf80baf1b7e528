//! Oracle tests for the engine.
//!
//! 1. **N = 2 against a direct enumeration**: on randomized
//!    advertiser/scanner configurations (proptest), an always-on
//!    two-node cohort must report exactly the first discovery instant and
//!    the reception count that walking the beacon train against the
//!    window train by hand gives. This is the pair the Monte-Carlo
//!    harnesses simulate, checked from first principles. Measured duty
//!    cycles and zero-ppm drift wrappers are checked on the same pairs.
//! 2. **Eq. 12 collision bound**: with S beaconers contending at channel
//!    utilization β, the measured collision rate must match the paper's
//!    slotless-ALOHA model `P_c = 1 − e^{−2(S−1)β}` within Monte-Carlo
//!    tolerance.

use nd_core::schedule::{BeaconSeq, ReceptionWindows, Schedule};
use nd_core::time::Tick;
use nd_netsim::{CohortReport, NetSimulator, NodeSpec};
use nd_sim::{Behavior, Drifting, ScheduleBehavior, SimConfig, Topology};
use proptest::prelude::*;

const OMEGA: Tick = Tick(36_000);

fn cfg(horizon: Tick) -> SimConfig {
    let mut radio = nd_core::RadioParams::paper_default();
    radio.omega = OMEGA;
    SimConfig::paper_baseline(horizon, 5).with_radio(radio)
}

/// Advertiser (one beacon per `ta`) and scanner (window `ds` at the start
/// of each `ts`), the canonical asymmetric pair.
fn schedules(ta: Tick, ts: Tick, ds: Tick) -> (Schedule, Schedule) {
    let adv = Schedule::tx_only(BeaconSeq::new(vec![Tick::ZERO], ta, OMEGA).unwrap());
    let scan = Schedule::rx_only(ReceptionWindows::single(Tick::ZERO, ds, ts).unwrap());
    (adv, scan)
}

/// Reference: the beacons of the advertiser (period `ta`, phase `pa`)
/// that start inside a window of the scanner (window `ds` at the start of
/// each `ts`, phase `ps`) and end by `horizon`, found by direct
/// enumeration. Returns the first such instant and how many there are.
fn reference_hits(
    ta: Tick,
    pa: Tick,
    ts: Tick,
    ds: Tick,
    ps: Tick,
    horizon: Tick,
) -> (Option<Tick>, u64) {
    let mut first = None;
    let mut hits = 0;
    // phase pa means the advertiser's schedule started at −pa: beacons at
    // k·ta − pa for k·ta ≥ pa
    for k in 0.. {
        let Some(at) = (ta * k).checked_sub(pa) else {
            continue;
        };
        if at + OMEGA > horizon {
            break; // the packet would end after the run
        }
        // scanner phase ps: windows at [m·ts − ps, m·ts − ps + ds)
        if (at + ps).rem_euclid(ts) < ds {
            first = first.or(Some(at));
            hits += 1;
        }
    }
    (first, hits)
}

fn run_pair(adv: Box<dyn Behavior>, scan: Box<dyn Behavior>, horizon: Tick) -> CohortReport {
    let mut sim = NetSimulator::new(cfg(horizon), Topology::full(2));
    sim.add_node(NodeSpec::always_on(adv));
    sim.add_node(NodeSpec::always_on(scan));
    sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The first discovery and every reception of an always-on pair equal
    /// the reference enumeration for arbitrary PI configurations and
    /// phases. The paper's full channel model is on: with one transmitter
    /// and a scanner that never transmits, neither collisions nor
    /// half-duplex blanking may lose a packet.
    #[test]
    fn pair_matches_reference_enumeration(
        ta_us in 100u64..5000,
        ts_us in 200u64..8000,
        ds_us in 40u64..190,
        pa_us in 0u64..5000,
        ps_us in 0u64..8000,
    ) {
        let ta = Tick::from_micros(ta_us);
        let ts = Tick::from_micros(ts_us);
        let ds = Tick::from_micros(ds_us.min(ts_us - 1));
        let pa = Tick::from_micros(pa_us % ta_us);
        let ps = Tick::from_micros(ps_us % ts_us);
        let horizon = Tick::from_millis(300);
        let (adv, scan) = schedules(ta, ts, ds);
        let report = run_pair(
            Box::new(ScheduleBehavior::with_phase(adv, pa)),
            Box::new(ScheduleBehavior::with_phase(scan, ps)),
            horizon,
        );
        let (first, hits) = reference_hits(ta, pa, ts, ds, ps, horizon);
        prop_assert_eq!(report.discovery.one_way(1, 0), first);
        prop_assert_eq!(report.packets.received, hits);
        prop_assert_eq!(report.packets.lost_collision + report.packets.lost_self_blocking, 0);
    }

    /// Measured duty cycles track the configured schedules.
    #[test]
    fn measured_duty_cycles(
        ta_us in 500u64..3000,
        gamma_pm in 20u64..300,
    ) {
        let ta = Tick::from_micros(ta_us);
        let ts = Tick::from_millis(10);
        let ds = Tick(ts.as_nanos() * gamma_pm / 1000);
        let (adv, scan) = schedules(ta, ts, ds);
        let report = run_pair(
            Box::new(ScheduleBehavior::new(adv)),
            Box::new(ScheduleBehavior::new(scan)),
            Tick::from_secs(1),
        );
        let beta = report.stats[0].beta(report.elapsed);
        let beta_cfg = OMEGA.as_nanos() as f64 / ta.as_nanos() as f64;
        prop_assert!((beta - beta_cfg).abs() / beta_cfg < 0.02, "beta {beta} vs {beta_cfg}");
        let gamma = report.stats[1].gamma(report.elapsed);
        let gamma_cfg = gamma_pm as f64 / 1000.0;
        prop_assert!((gamma - gamma_cfg).abs() / gamma_cfg < 0.03, "gamma {gamma} vs {gamma_cfg}");
    }

    /// Zero-ppm drift wrappers are transparent: same discovery, same
    /// receptions as the bare schedules.
    #[test]
    fn zero_drift_transparent(
        ta_us in 100u64..2000,
        ps_us in 0u64..3000,
    ) {
        let ta = Tick::from_micros(ta_us);
        let ts = Tick::from_micros(3100);
        let ds = Tick::from_micros(150);
        let ps = Tick::from_micros(ps_us % 3100);
        let horizon = Tick::from_millis(100);
        let (adv, scan) = schedules(ta, ts, ds);
        let plain = run_pair(
            Box::new(ScheduleBehavior::new(adv.clone())),
            Box::new(ScheduleBehavior::with_phase(scan.clone(), ps)),
            horizon,
        );
        let drifted = run_pair(
            Box::new(Drifting::new(ScheduleBehavior::new(adv), 0)),
            Box::new(Drifting::new(ScheduleBehavior::with_phase(scan, ps), 0)),
            horizon,
        );
        prop_assert_eq!(plain.discovery, drifted.discovery);
        prop_assert_eq!(plain.packets, drifted.packets);
    }
}

/// Eq. 12 of the paper: S contending beaconers, each with channel
/// utilization β, lose a fraction `1 − e^{−2(S−1)β}` of their beacons to
/// collisions. Simulate S senders with near-coprime periods (so beacon
/// alignments decorrelate) plus one always-listening scanner, and compare
/// the measured collision rate at the scanner against the bound.
#[test]
fn collision_rate_matches_eq12() {
    // distinct prime-ish periods around 400ω: β ≈ 0.0025 each
    let periods_us = [3989u64, 4001, 4093, 4211, 4297, 4409];
    let s = periods_us.len() as u32;
    let omega = Tick::from_micros(4);
    let horizon = Tick::from_millis(400);

    let mut received = 0u64;
    let mut lost_collision = 0u64;
    for seed in 0..24u64 {
        let mut radio = nd_core::RadioParams::paper_default();
        radio.omega = omega;
        let mut cfg = SimConfig::paper_baseline(horizon, seed).with_radio(radio);
        cfg.half_duplex = false; // the scanner never transmits anyway
        let n = periods_us.len() + 1;
        let mut sim = NetSimulator::new(cfg, Topology::full(n));
        for (i, &period_us) in periods_us.iter().enumerate() {
            let period = Tick::from_micros(period_us);
            let adv = Schedule::tx_only(BeaconSeq::new(vec![Tick::ZERO], period, omega).unwrap());
            // deterministic per-sender phase, different every run
            let phase = Tick(
                (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64) << 48)
                    % period.as_nanos().max(1),
            );
            sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
                adv, phase,
            ))));
        }
        // the scanner: wall-to-wall listening
        let scan = Schedule::rx_only(
            ReceptionWindows::single(Tick::ZERO, Tick::from_millis(1), Tick::from_millis(1))
                .unwrap(),
        );
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(scan))));
        let report = sim.run();
        received += report.packets.received;
        lost_collision += report.packets.lost_collision;
    }

    let receivable = received + lost_collision;
    assert!(receivable > 10_000, "need statistics, got {receivable}");
    let measured = lost_collision as f64 / receivable as f64;
    let beta = 4.0 / 4166.0; // ω / mean period
    let predicted = nd_core::bounds::collisions::collision_probability(s, beta);
    assert!(
        (measured - predicted).abs() < 0.01,
        "measured collision rate {measured:.4} vs Eq. 12 prediction {predicted:.4}"
    );
}
