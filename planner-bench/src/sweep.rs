//! The sweep-sim workload: batch `run_sweep` over three simulation
//! grids, first on a fresh result cache, then again fully cached.

use crate::stats::Rng;
use nd_sweep::{run_sweep, Row, ScenarioSpec, SweepOptions, SweepOutcome};
use std::path::Path;
use std::time::Instant;

/// Sweep worker threads.
pub const THREADS: usize = 2;

/// One grid of the workload.
pub struct Grid {
    /// `shootout`, `sparse` or `dense`.
    pub name: &'static str,
    pub spec: ScenarioSpec,
    /// Simulation runs per job (the spec's `sim.trials`).
    pub trials: usize,
}

/// The three grids, seeded: each draws its simulation seed; the axes
/// (and so the job count and per-job work) are fixed, at the paper's
/// BLE-like ω = 36 µs.
pub fn grids(rng: &Rng) -> Vec<Grid> {
    let mut r = rng.fork(21);
    let mut seed = || r.next_u64() % 1_000_000_007;
    let omega = 36;
    const SHOOTOUT_TRIALS: usize = 300;
    const SPARSE_TRIALS: usize = 140;
    const DENSE_TRIALS: usize = 2;
    let shootout = format!(
        r#"name = "bench-shootout"
backend = "montecarlo"
metric = "two-way"

[radio]
omega_us = {omega}

[grid]
protocol = ["optimal-slotless", "diff-codes", "searchlight", "disco", "u-connect", "code-based"]
eta = [0.02, 0.05, 0.1]
drop_probability = [0.0, 0.1, 0.3]

[sim]
trials = {SHOOTOUT_TRIALS}
seed = {}
horizon_ms = 2000
half_duplex = true
collisions = true
"#,
        seed()
    );
    let sparse = format!(
        r#"name = "bench-sparse"
backend = "netsim"
metric = "either-way"

[radio]
omega_us = {omega}

[grid]
protocol = ["optimal-slotless", "disco"]
eta = [0.1]
nodes = [2, 4, 8]
churn = [0.0, 0.25, 0.5]

[sim]
trials = {SPARSE_TRIALS}
seed = {}
horizon_ms = 300
"#,
        seed()
    );
    let dense = format!(
        r#"name = "bench-dense"
backend = "netsim"
metric = "either-way"

[radio]
omega_us = {omega}

[grid]
protocol = ["optimal-slotless"]
eta = [0.1]
nodes = [128, 160, 192, 256]
collision = [true]

[sim]
trials = {DENSE_TRIALS}
seed = {}
horizon_ms = 200
collisions = true
"#,
        seed()
    );
    let parse = |s: &str| ScenarioSpec::from_toml_str(s).expect("benchmark grids are valid specs");
    vec![
        Grid {
            name: "shootout",
            spec: parse(&shootout),
            trials: SHOOTOUT_TRIALS,
        },
        Grid {
            name: "sparse",
            spec: parse(&sparse),
            trials: SPARSE_TRIALS,
        },
        Grid {
            name: "dense",
            spec: parse(&dense),
            trials: DENSE_TRIALS,
        },
    ]
}

/// Set-up: generate and validate the grids, and run each grid's first
/// job once so lazy initialisation is not timed.
pub fn setup(rng: &Rng) -> Vec<Grid> {
    let grids = grids(rng);
    for g in &grids {
        let jobs = nd_sweep::expand(&g.spec);
        if let Some(job) = jobs.first() {
            let _ = std::hint::black_box(nd_sweep::engine::execute_job(job, &g.spec));
        }
    }
    grids
}

/// One `run_sweep` call, timed.
pub struct Call {
    pub grid: usize,
    pub cached: bool,
    pub ms: f64,
    pub jobs: usize,
    /// Trace-clock interval of the call.
    pub start_ns: u64,
    pub end_ns: u64,
    pub ctx: String,
    /// Process CPU seconds the call used.
    pub cpu_s: f64,
    /// Netsim events the call simulated (counted only while the metrics
    /// registry is on).
    pub netsim_events: u64,
}

pub struct SweepRun {
    pub calls: Vec<Call>,
    pub iterations: usize,
    pub attempted: u64,
    pub failed: u64,
}

fn call(
    grid: &Grid,
    index: usize,
    cache: &Path,
    cached: bool,
    ctx: String,
) -> (Call, Option<SweepOutcome>) {
    let opts = SweepOptions {
        threads: Some(THREADS),
        use_cache: true,
        cache_dir: Some(cache.to_path_buf()),
    };
    let _ctx = nd_obs::trace::push_context(ctx.as_str());
    let _span = nd_obs::span!("bench.sweep", grid = grid.name, cached = cached);
    let events = nd_obs::metrics::counter("netsim.events");
    let events0 = events.get();
    let start_ns = nd_obs::trace::now_ns();
    let cpu0 = crate::host::cpu_seconds();
    let t = Instant::now();
    let out = run_sweep(&grid.spec, &opts).ok();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_s = crate::host::cpu_seconds() - cpu0;
    let end_ns = nd_obs::trace::now_ns();
    let netsim_events = events.get() - events0;
    let jobs = out.as_ref().map_or(0, |o| o.rows.len());
    (
        Call {
            grid: index,
            cached,
            ms,
            jobs,
            start_ns,
            end_ns,
            ctx,
            cpu_s,
            netsim_events,
        },
        out,
    )
}

/// Two rows are the same result: parameters, error and every metric
/// bit for bit.
fn same_row(a: &Row, b: &Row) -> bool {
    a.params == b.params
        && a.error == b.error
        && a.metrics.len() == b.metrics.len()
        && a.metrics
            .iter()
            .zip(&b.metrics)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Iterations of (fresh cache → cold pass over every grid → cached pass
/// over every grid) until `budget_s` has passed. Checks: every job of
/// the cold pass executed without error, every job of the cached pass
/// came from the cache, and cached rows are bit-identical to cold rows.
pub fn sweep_run(grids: &[Grid], dir: &Path, budget_s: f64, tag: &str) -> SweepRun {
    let t0 = Instant::now();
    let mut run = SweepRun {
        calls: Vec::new(),
        iterations: 0,
        attempted: 0,
        failed: 0,
    };
    while run.iterations == 0 || t0.elapsed().as_secs_f64() < budget_s {
        let cache = crate::serve::fresh_dir(dir.join("cache"));
        let i = run.iterations;
        let cold: Vec<_> = grids
            .iter()
            .enumerate()
            .map(|(g, grid)| {
                call(
                    grid,
                    g,
                    &cache,
                    false,
                    format!("sweep-{tag}-{i}-{}-cold", grid.name),
                )
            })
            .collect();
        let cached: Vec<_> = grids
            .iter()
            .enumerate()
            .map(|(g, grid)| {
                call(
                    grid,
                    g,
                    &cache,
                    true,
                    format!("sweep-{tag}-{i}-{}-cached", grid.name),
                )
            })
            .collect();
        for ((cc, co), (hc, ho)) in cold.into_iter().zip(cached) {
            run.attempted += cc.jobs.max(1) as u64;
            let rows_ok = match (&co, &ho) {
                (Some(c), Some(h)) => {
                    c.rows.len() == h.rows.len()
                        && c.executed == c.rows.len()
                        && h.cache_hits == h.rows.len()
                        && c.rows.iter().all(|r| r.error.is_none())
                        && c.rows.iter().zip(&h.rows).all(|(a, b)| same_row(a, b))
                }
                _ => false,
            };
            if !rows_ok {
                run.failed += cc.jobs.max(1) as u64;
            }
            run.calls.push(cc);
            run.calls.push(hc);
        }
        run.iterations += 1;
    }
    run
}
