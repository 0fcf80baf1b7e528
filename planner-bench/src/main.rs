//! `planner-bench`: the planner measured end to end, as its users meet
//! it — served fronts (warm, cold, coalesced) and batch simulation
//! sweeps — with a separate traced run that splits the time by layer.
//!
//! ```text
//! planner-bench --workload <serve-warm|serve-cold|sweep-sim> --seed N
//!               --seconds S --trace <0|1>
//! ```
//!
//! Prints the host fingerprint and every metric by name, then, as the
//! last line, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero when any output check
//! failed. Writes `summary.json` (and with `--trace 1` the span trace
//! `trace.jsonl`) under `.bench_out/<workload>-s<seed>-t<trace>/`. See
//! README.md for the workloads and the metric map.

mod client;
mod host;
mod layers;
mod serve;
mod specs;
mod stats;
mod sweep;

use stats::{median, quantile, Rng};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: planner-bench --workload <serve-warm|serve-cold|sweep-sim> \
                     --seed N --seconds S --trace <0|1>";

/// Set-ups per run; the reported `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !matches!(workload.as_str(), "serve-warm" | "serve-cold" | "sweep-sim") {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A named number with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run measured.
pub struct Report {
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further figures, printed by name and kept in the summary.
    pub detail: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("planner-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = serve::fresh_dir(PathBuf::from(".bench_out").join(format!(
        "{}-s{}-t{}",
        args.workload, args.seed, args.trace as u8
    )));
    let fingerprint = host::fingerprint(&args.workload, args.seed);
    for (k, v) in &fingerprint {
        println!("# {k}: {v}");
    }
    let rng = Rng::new(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let result = match (args.workload.as_str(), args.trace) {
        ("serve-warm", false) => serve_warm(&rng, budget, &dir),
        ("serve-cold", false) => serve_cold(&rng, budget, &dir),
        ("sweep-sim", false) => sweep_sim(&rng, budget, &dir),
        (workload, true) => layers::traced(workload, &rng, budget, &dir),
        _ => unreachable!("parse_args admits three workloads"),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("planner-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in report.detail.iter().chain(&report.metrics) {
        println!("{} {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    // result caches are throwaway state; the summary and trace stay
    for cache in ["cache", "probe-cache"] {
        let _ = std::fs::remove_dir_all(dir.join(cache));
    }
    let summary = summary_json(&fingerprint, &report);
    if let Err(e) = std::fs::write(dir.join("summary.json"), summary) {
        eprintln!("planner-bench: cannot write the summary: {e}");
    }
    println!("{}", result_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "planner-bench: {} of {} checked operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

fn json_str(s: &str) -> String {
    nd_sweep::Value::Str(s.to_string()).to_json()
}

fn json_metrics(ms: &[Metric]) -> String {
    let fields: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        json_metrics(&r.metrics)
    )
}

fn summary_json(fingerprint: &std::collections::BTreeMap<&str, String>, r: &Report) -> String {
    let host: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"host\": {{{}}}, \"result\": {}, \"detail\": {}}}\n",
        host.join(", "),
        result_line(r),
        json_metrics(&r.detail)
    )
}

/// Run `setup` [`SETUP_REPS`] times, keep the last result, report the
/// median duration in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> std::io::Result<T>) -> std::io::Result<(T, f64)> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&secs)))
}

fn serve_warm(rng: &Rng, budget: Duration, dir: &Path) -> std::io::Result<Report> {
    let (set, setup_s) = timed_setup(|| serve::warm_setup(rng, dir))?;
    let run = serve::warm_run(&set, rng, budget, 0.5)?;
    let attempted = set.checks.0 + run.sent;
    let failed = set.checks.1 + run.wrong;
    let reference = &run.rungs[0];
    let mut detail = vec![
        metric("warm_p50_ms", reference.p(0.5), "ms"),
        metric("warm_p99_ms", reference.p(0.99), "ms"),
        metric("warm_max_rps", run.max_rps, "1/s"),
        metric("warm_samples", reference.latency_ms.len() as f64, "count"),
        metric(
            "client.lateness_p99_ms",
            quantile(&reference.lateness_ms, 0.99),
            "ms",
        ),
    ];
    for r in &run.rungs[1..] {
        detail.push(metric(format!("warm_p50_ms.at_{}", r.rate), r.p(0.5), "ms"));
        detail.push(metric(
            format!("warm_p99_ms.at_{}", r.rate),
            r.p(0.99),
            "ms",
        ));
    }
    detail.extend([
        metric("warm_sat_rps", run.sat.rate, "1/s"),
        metric("warm_sat_p50_ms", run.sat.p(0.5), "ms"),
        metric("warm_sat_p99_ms", run.sat.p(0.99), "ms"),
        metric(
            "fail_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    Ok(Report {
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
            metric("p50_ms", run.sat.p(0.5), "ms"),
            metric("rate_per_s", run.sat.rate, "1/s"),
            metric("cpu_ms_per_op", run.sat_cpu_ms, "ms"),
        ],
        detail,
        attempted,
        failed,
    })
}

/// Blocks of the serve-cold plan: more than any run can finish.
pub const COLD_BLOCKS: usize = 300;

fn serve_cold(rng: &Rng, budget: Duration, dir: &Path) -> std::io::Result<Report> {
    let plan = serve::ColdPlan::new(rng, COLD_BLOCKS);
    let (server, setup_s) = timed_setup(|| serve::cold_setup(&plan, dir))?;
    let cpu0 = host::cpu_seconds();
    let run = serve::cold_run(&plan, &server, budget)?;
    let cpu_ms = (host::cpu_seconds() - cpu0) * 1e3;
    let (checked, bad) = serve::cold_check(&plan, &server, &run);
    let attempted = server.checks.0 + checked;
    let failed = server.checks.1 + bad;
    let lat = |kind: serve::Kind| -> Vec<f64> {
        run.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.timing.latency_ms())
            .collect()
    };
    let leaders = lat(serve::Kind::Leader);
    let followers = lat(serve::Kind::Follower);
    let reasks = lat(serve::Kind::Reask);
    let fronts_per_s = leaders.len() as f64 / run.wall_s;
    let detail = vec![
        metric("cold_p50_ms", median(&leaders), "ms"),
        metric("cold_p90_ms", quantile(&leaders, 0.9), "ms"),
        metric("coalesced_p50_ms", median(&followers), "ms"),
        metric("recompute_p50_ms", median(&reasks), "ms"),
        metric("cold_fronts_per_s", fronts_per_s, "1/s"),
        metric("cold_blocks", run.blocks as f64, "count"),
        metric("cold_leaders", leaders.len() as f64, "count"),
        metric(
            "fail_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    drop(server);
    Ok(Report {
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
            metric("p50_ms", median(&leaders), "ms"),
            metric("rate_per_s", fronts_per_s, "1/s"),
            metric("cpu_ms_per_op", cpu_ms / leaders.len().max(1) as f64, "ms"),
        ],
        detail,
        attempted,
        failed,
    })
}

fn sweep_sim(rng: &Rng, budget: Duration, dir: &Path) -> std::io::Result<Report> {
    let (grids, setup_s) = timed_setup(|| Ok(sweep::setup(rng)))?;
    let run = sweep::sweep_run(&grids, dir, budget.as_secs_f64(), "e2e");
    let cold: Vec<&sweep::Call> = run.calls.iter().filter(|c| !c.cached).collect();
    let cached: Vec<&sweep::Call> = run.calls.iter().filter(|c| c.cached).collect();
    let per_s = |calls: &[&sweep::Call]| {
        calls.iter().map(|c| c.jobs).sum::<usize>() as f64
            / (calls.iter().map(|c| c.ms).sum::<f64>() / 1e3)
    };
    let cold_ms: Vec<f64> = cold.iter().map(|c| c.ms).collect();
    let cached_ms: Vec<f64> = cached.iter().map(|c| c.ms).collect();
    let cold_jobs: usize = cold.iter().map(|c| c.jobs).sum();
    let cold_cpu_ms = cold.iter().map(|c| c.cpu_s).sum::<f64>() * 1e3;
    let mut detail = vec![
        metric("sweep_jobs_per_s", per_s(&cold), "1/s"),
        metric("sweep_cached_jobs_per_s", per_s(&cached), "1/s"),
        metric("sweep_cold_p90_ms", quantile(&cold_ms, 0.9), "ms"),
        metric("sweep_cached_p50_ms", median(&cached_ms), "ms"),
        metric("sweep_iterations", run.iterations as f64, "count"),
        metric(
            "fail_frac",
            run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    for (g, grid) in grids.iter().enumerate() {
        let ms: Vec<f64> = cold.iter().filter(|c| c.grid == g).map(|c| c.ms).collect();
        detail.push(metric(
            format!("sweep.{}.cold_ms", grid.name),
            median(&ms),
            "ms",
        ));
    }
    Ok(Report {
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
            metric("p50_ms", median(&cold_ms), "ms"),
            metric("rate_per_s", per_s(&cold), "1/s"),
            metric("cpu_ms_per_op", cold_cpu_ms / cold_jobs.max(1) as f64, "ms"),
        ],
        detail,
        attempted: run.attempted,
        failed: run.failed,
    })
}
