//! The steady-state fast-forward's profiling counters.
//!
//! A steady dense cohort (full mesh, collisions on, a horizon of many
//! joint periods) must report its skip through the nd-obs counters, and
//! `netsim.events` must keep counting only the events actually handled
//! while the report counts what the full run would have handled.
//!
//! This file holds a single test on purpose: the metrics registry is
//! process-global, and a sibling test running concurrently would add to
//! the same counters.

use nd_core::time::Tick;
use nd_netsim::{NetSimulator, NodeSpec};
use nd_sim::{Behavior, ScheduleBehavior, SimConfig, Topology};

#[test]
fn steady_dense_cohort_reports_its_skip() {
    let omega = Tick::from_micros(36);
    let sched =
        nd_protocols::schedule_for_selector("optimal-slotless", 0.1, Tick::from_millis(1), omega)
            .unwrap();
    let period = ScheduleBehavior::new(sched.clone())
        .steady_period()
        .unwrap();
    let mut radio = nd_core::RadioParams::paper_default();
    radio.omega = omega;
    let cfg = SimConfig::paper_baseline(period * 12, 7).with_radio(radio);
    let n = 48;
    let mut sim = NetSimulator::new(cfg, Topology::full(n));
    for i in 0..n as u64 {
        let phase = Tick(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % period.0);
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
            sched.clone(),
            phase,
        ))));
    }
    sim.stop_when_all_discovered(true);

    nd_obs::metrics::set_enabled(true);
    nd_obs::metrics::reset();
    let report = sim.run();
    let counter = |name: &str| nd_obs::metrics::counter(name).get();
    let periods = counter("netsim.ff.periods_skipped");
    let skipped = counter("netsim.ff.events_skipped");
    let handled = counter("netsim.events");
    nd_obs::metrics::set_enabled(false);

    assert!(periods > 0, "a steady dense cohort must fast-forward");
    assert!(skipped > 0);
    assert_eq!(
        handled + skipped,
        report.events,
        "handled + skipped = full run"
    );
    assert!(counter("netsim.txend.candidates") > 0);
    assert!(counter("netsim.txend.colliders") > 0);
}
