//! Quick netsim hot-loop probe: event counts and wall time per cohort size.
use nd_core::time::Tick;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;
use nd_netsim::{NetSimulator, NodeSpec};
use nd_sim::{ScheduleBehavior, SimConfig, Topology};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let reps: usize = std::env::var("REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let sched = nd_protocols::schedule_for_selector(
        "optimal-slotless",
        0.10,
        Tick::from_millis(1),
        Tick::from_micros(36),
    )
    .unwrap();
    if let (Some(b), Some(c)) = (&sched.beacons, &sched.windows) {
        eprintln!(
            "T_B={:?} omega_sched={:?} T_C={:?} d={:?}",
            b.period(),
            Tick::from_micros(36),
            c.period(),
            c.instances_in(Tick::ZERO, c.period())
                .first()
                .map(|iv| iv.measure())
        );
    }
    let mut radio = nd_core::RadioParams::paper_default();
    radio.omega = Tick::from_micros(36);
    let cfg = SimConfig::paper_baseline(Tick::from_millis(50), 42).with_radio(radio);
    let build = || {
        let mut sim = NetSimulator::new(cfg.clone(), Topology::full(n));
        for i in 0..n {
            let phase =
                Tick(((42u64 ^ (i as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 14_400_000);
            sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
                sched.clone(),
                phase,
            ))));
        }
        sim.stop_when_all_discovered(true);
        sim
    };
    let mut report = build().run();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t = std::time::Instant::now();
    for _ in 0..reps {
        report = build().run();
    }
    let wall = t.elapsed() / reps as u32;
    let allocs = (ALLOCS.load(Ordering::Relaxed) - a0) / reps as u64;
    eprintln!("allocs/run={allocs}");
    println!(
        "n={n} events={} sent={} received={} lost_coll={} lost_blank={} elapsed={:?} wall={wall:?} ev/s={:.0}",
        report.events,
        report.packets.sent,
        report.packets.received,
        report.packets.lost_collision,
        report.packets.lost_self_blocking,
        report.elapsed,
        report.events as f64 / wall.as_secs_f64()
    );
}
