//! The traced run: per-layer numbers for one workload.
//!
//! Each traced run measures the workload twice for half the budget:
//! first as the end-to-end run does (tracing and metrics off), then with
//! nd-obs spans kept in memory and the metrics registry on. The spans
//! are written out as `trace.jsonl` (the nd-obs JSONL format, readable
//! by `nd-trace critical-path --ctx` and `nd-trace diff`), then turned
//! into layer numbers together with the program's own counters and
//! timed probes of each layer's public functions on the workload's own
//! inputs.

use crate::serve::{self, ColdRecord, Kind, WarmSet};
use crate::specs::{Class, Spec};
use crate::stats::{mean, median, quantile, Rng};
use crate::sweep::{self, Grid};
use crate::{host, metric, Metric, Report};
use nd_obs::metrics::Snapshot;
use nd_sweep::value::{parse_json, Value};
use nd_trace::SpanRec;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The layers a span's time is credited to, by span-name prefix.
const LAYERS: [&str; 7] = [
    "client", "serve", "opt", "sweep", "analysis", "sim", "netsim",
];

fn layer_of(name: &str) -> &'static str {
    match name {
        "backend.exact" | "backend.bounds" => "analysis",
        "backend.montecarlo" => "sim",
        "backend.netsim" => "netsim",
        n if n.starts_with("serve.") => "serve",
        n if n.starts_with("opt.") => "opt",
        n if n.starts_with("sweep.") => "sweep",
        // the benchmark's own spans: client work and, for served
        // requests, the loopback hop
        _ => "client",
    }
}

/// An in-memory span sink: nd-obs writes JSONL lines here.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .map_err(|_| std::io::Error::other("trace sink poisoned"))?
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run `f` with tracing into memory and the metrics registry on; write
/// the spans to `dir/trace.jsonl` and return them with the registry.
fn traced_phase<T>(
    dir: &Path,
    f: impl FnOnce() -> T,
) -> std::io::Result<(T, Vec<SpanRec>, Snapshot)> {
    let sink = Sink::default();
    nd_obs::metrics::reset();
    nd_obs::metrics::set_enabled(true);
    nd_obs::trace::init_writer(Box::new(sink.clone()));
    let out = f();
    nd_obs::trace::shutdown();
    nd_obs::metrics::set_enabled(false);
    let snapshot = nd_obs::metrics::snapshot();
    let bytes = std::mem::take(
        &mut *sink
            .0
            .lock()
            .map_err(|_| std::io::Error::other("trace sink poisoned"))?,
    );
    std::fs::write(dir.join("trace.jsonl"), &bytes)?;
    let text = String::from_utf8(bytes).map_err(std::io::Error::other)?;
    let spans = nd_trace::parse_trace(&text).map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok((out, spans, snapshot))
}

// ---------------------------------------------------------------------------
// span trees across threads
// ---------------------------------------------------------------------------

/// Spans nested by containment: on their own thread first, and a
/// thread's top-level span under the innermost span of the same trace
/// context on another thread (pool workers under the round that
/// dispatched them).
struct Tree {
    spans: Vec<SpanRec>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    by_ctx: HashMap<String, Vec<usize>>,
}

fn contains(a: &SpanRec, b: &SpanRec) -> bool {
    a.start_ns <= b.start_ns && b.end_ns() <= a.end_ns()
}

impl Tree {
    fn build(mut spans: Vec<SpanRec>) -> Tree {
        spans.sort_by_key(|s| (s.tid, s.start_ns, s.depth, std::cmp::Reverse(s.dur_ns)));
        let n = spans.len();
        let mut parent = vec![None; n];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..n {
            while let Some(&top) = stack.last() {
                if spans[top].tid == spans[i].tid && contains(&spans[top], &spans[i]) {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            stack.push(i);
        }
        let mut by_ctx: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(c) = &s.ctx {
                by_ctx.entry(c.clone()).or_default().push(i);
            }
        }
        for members in by_ctx.values() {
            for &i in members {
                if parent[i].is_some() {
                    continue;
                }
                parent[i] = members
                    .iter()
                    .copied()
                    .filter(|&j| spans[j].tid != spans[i].tid && contains(&spans[j], &spans[i]))
                    .min_by_key(|&j| spans[j].dur_ns);
            }
        }
        let mut children = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        Tree {
            spans,
            parent,
            children,
            by_ctx,
        }
    }

    /// A span's duration minus the part of it its children cover.
    fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let mut iv: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| {
                let c = &self.spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns().min(s.end_ns()))
            })
            .collect();
        s.dur_ns.saturating_sub(union_len(&mut iv))
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Credit every instant of `[a, b]` to the layers of the innermost
    /// spans of trace context `ctx` active then, split evenly among
    /// concurrent ones; instants no span covers go to the client.
    fn attribute(&self, ctx: &str, a: u64, b: u64, credit: &mut BTreeMap<&'static str, f64>) {
        let members: &[usize] = self.by_ctx.get(ctx).map_or(&[], Vec::as_slice);
        let mut cuts: Vec<u64> = members
            .iter()
            .flat_map(|&i| [self.spans[i].start_ns, self.spans[i].end_ns()])
            .chain([a, b])
            .filter(|&t| t >= a && t <= b)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let active: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| self.spans[i].start_ns <= lo && self.spans[i].end_ns() >= hi)
                .collect();
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&i| !active.iter().any(|&j| self.parent[j] == Some(i)))
                .collect();
            if leaves.is_empty() {
                *credit.entry("client").or_insert(0.0) += (hi - lo) as f64;
            }
            for &l in &leaves {
                *credit.entry(layer_of(&self.spans[l].name)).or_insert(0.0) +=
                    (hi - lo) as f64 / leaves.len() as f64;
            }
        }
    }
}

/// Total length of a set of intervals (sorted in place).
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let (mut total, mut end) = (0u64, 0u64);
    for &(a, b) in iv.iter() {
        if b <= end {
            continue;
        }
        total += b - a.max(end);
        end = b;
    }
    total
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn gauge(snap: &Snapshot, name: &str) -> f64 {
    snap.gauges.get(name).copied().unwrap_or(0.0)
}

/// Time `f` over `inputs` (each at least once, the set repeated until
/// 20 ms have passed); the median microseconds per call.
fn probe<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.is_empty() || t0.elapsed() < Duration::from_millis(20) {
        for x in inputs {
            let t = Instant::now();
            f(x);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&samples)
}

/// Every per-layer metric, in the order they are reported. Workloads
/// that do not exercise a layer report 0 for it.
struct Layers(BTreeMap<String, (f64, &'static str)>);

impl Layers {
    fn new() -> Layers {
        let mut m = BTreeMap::new();
        for (name, unit) in names() {
            m.insert(name, (0.0, unit));
        }
        Layers(m)
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a declared per-layer metric"));
        slot.0 = if value.is_finite() { value } else { 0.0 };
    }

    fn into_metrics(self) -> Vec<Metric> {
        names()
            .into_iter()
            .map(|(name, unit)| {
                let v = self.0[&name].0;
                metric(name, v, unit)
            })
            .collect()
    }
}

/// The declared per-layer metric names and units.
fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("serve.request.self_us.p50", "us"),
        ("serve.request.self_us.p99", "us"),
        ("serve.http.overhead_us", "us"),
        ("serve.api.parse_us", "us"),
        ("serve.api.success_body_us", "us"),
        ("serve.response_bytes", "B"),
        ("client.lateness_p99_ms", "ms"),
        ("serve.computed", "count"),
        ("serve.coalesced", "count"),
        ("serve.memo_hits", "count"),
        ("serve.coalesce_ratio", "ratio"),
        ("opt.run.self_us", "us"),
        ("opt.eval.self_us", "us"),
        ("opt.evals", "count"),
        ("opt.executed", "count"),
        ("opt.cache_hits", "count"),
        ("opt.censored", "count"),
        ("opt.front_points_per_eval", "ratio"),
        ("opt.pool.parallel_eff", "ratio"),
        ("opt.export.json_roundtrip_us", "us"),
        ("analysis.exact.share", "ratio"),
        ("sweep.expand_hash_us", "us"),
        ("sweep.cache_probe_us", "us"),
        ("sweep.job.self_us", "us"),
        ("cache.hit", "count"),
        ("cache.miss", "count"),
        ("cache.store", "count"),
        ("cache.corrupt", "count"),
        ("sweep.cache.load_us", "us"),
        ("sweep.cache.store_us", "us"),
        ("backend.montecarlo.busy_us", "us"),
        ("sim.runs_per_s", "1/s"),
        ("netsim.events_per_s.sparse", "1/s"),
        ("netsim.events_per_s.dense", "1/s"),
        ("netsim.wheel_cascades", "count"),
        ("netsim.wheel_depth_max", "count"),
        ("pool.task_us.p50", "us"),
        ("obs.trace_overhead_frac", "ratio"),
        ("proc.cpu_util", "ratio"),
        ("trace.attributed_frac", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for class in Class::ALL {
        let c = class.name();
        for (n, u) in [
            ("analysis.exact.busy_us", "us"),
            ("analysis.exact.evals_per_s", "1/s"),
            ("analysis.coverage_us", "us"),
            ("analysis.residue_us", "us"),
            ("core.coverage_build_us", "us"),
            ("protocols.schedule_us", "us"),
        ] {
            v.push((format!("{n}.{c}"), u));
        }
    }
    for l in LAYERS {
        v.push((format!("layer.{l}.share"), "ratio"));
    }
    v
}

// ---------------------------------------------------------------------------
// probes
// ---------------------------------------------------------------------------

/// Kernel probes per class on the symmetric front points of the
/// workload's own front documents: schedule construction, the exact
/// one-way coverage analysis, the residue fold inside it, and a
/// coverage-map build over one period's beacons.
fn kernel_probes(layers: &mut Layers, fronts: &[(Spec, Value)]) {
    use nd_analysis::exact::{one_way_coverage, AnalysisConfig};
    use nd_core::{CoverageMap, Tick};
    const PER_CLASS: usize = 8;
    for class in Class::ALL {
        let mut inputs = Vec::new();
        for (spec, doc) in fronts.iter().filter(|(s, _)| s.shape.class == class) {
            let Some(front) = doc
                .as_table()
                .and_then(|t| t.get("fronts"))
                .and_then(Value::as_array)
                .and_then(|f| f.first())
                .and_then(Value::as_table)
            else {
                continue;
            };
            let protocol = front.get("protocol").and_then(Value::as_str).unwrap_or("");
            for p in front
                .get("front")
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
            {
                let Some(t) = p.as_table() else { continue };
                if t.get("eta_b").is_some_and(|v| !matches!(v, Value::Null)) {
                    continue; // pair points need both roles; probe symmetric ones
                }
                let eta = t.get("eta").and_then(Value::as_f64).unwrap_or(0.0);
                let slot_us = t.get("slot_us").and_then(Value::as_f64).unwrap_or(1000.0);
                inputs.push((protocol.to_string(), eta, slot_us, spec.omega_us));
            }
        }
        // an even sample across the class's points
        let step = (inputs.len() / PER_CLASS).max(1);
        let inputs: Vec<_> = inputs.into_iter().step_by(step).take(PER_CLASS).collect();
        let tick = |us: f64| Tick::from_secs_f64(us * 1e-6);
        let build = |x: &(String, f64, f64, f64)| {
            nd_protocols::schedule_for_selector(&x.0, x.1, tick(x.2), tick(x.3)).ok()
        };
        let c = class.name();
        layers.set(
            &format!("protocols.schedule_us.{c}"),
            probe(&inputs, |x| {
                std::hint::black_box(build(x));
            }),
        );
        let scheds: Vec<_> = inputs
            .iter()
            .filter_map(|x| {
                let s = build(x)?;
                Some((s.beacons?, s.windows?, tick(x.3)))
            })
            .collect();
        layers.set(
            &format!("analysis.coverage_us.{c}"),
            probe(&scheds, |(b, w, omega)| {
                std::hint::black_box(
                    one_way_coverage(b, w, &AnalysisConfig::with_omega(*omega)).ok(),
                );
            }),
        );
        layers.set(
            &format!("analysis.residue_us.{c}"),
            probe(&scheds, |(b, w, omega)| {
                let cfg = AnalysisConfig::with_omega(*omega);
                let base = cfg.model.reception_offsets(w, *omega);
                std::hint::black_box(nd_analysis::ultimate_covered_measure(&base, b, w.period()));
            }),
        );
        layers.set(
            &format!("core.coverage_build_us.{c}"),
            probe(&scheds, |(b, w, omega)| {
                let t0 = b.times()[0];
                let rel: Vec<Tick> = b.times().iter().take(64).map(|&t| t - t0).collect();
                let model = AnalysisConfig::with_omega(*omega).model;
                std::hint::black_box(CoverageMap::build(&rel, w, *omega, model));
            }),
        );
    }
}

/// API probes: request parsing and success-envelope rendering on the
/// workload's own request bodies and result documents.
fn api_probes(layers: &mut Layers, bodies: &[(nd_serve::Endpoint, String)], docs: &[Value]) {
    layers.set(
        "serve.api.parse_us",
        probe(bodies, |(e, b)| {
            std::hint::black_box(nd_serve::parse_request(*e, b).ok());
        }),
    );
    let served = Value::Table(BTreeMap::from([
        ("memo".to_string(), Value::Bool(true)),
        ("coalesced".to_string(), Value::Bool(false)),
        ("executed".to_string(), Value::Int(0)),
        ("cache_hits".to_string(), Value::Int(0)),
        ("wall_us".to_string(), Value::Int(0)),
    ]));
    let mut samples = Vec::new();
    for _ in 0..3 {
        for d in docs {
            let (doc, s) = (d.clone(), served.clone());
            let t = Instant::now();
            std::hint::black_box(nd_serve::success_body(doc, s));
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    layers.set("serve.api.success_body_us", median(&samples));
}

/// The export round trip the planner performs per computed front
/// (`nd_opt::to_json`, then `parse_json`), on outcomes recomputed from
/// the workload's result cache.
fn export_probe(layers: &mut Layers, specs: &[&Spec], cache: &Path) {
    let opts = nd_opt::OptOptions {
        threads: Some(serve::WORKERS),
        use_cache: true,
        cache_dir: Some(cache.to_path_buf()),
        strict_cache: true,
    };
    let outcomes: Vec<_> = specs
        .iter()
        .filter_map(|s| nd_opt::OptSpec::from_json_str(&s.json).ok())
        .filter_map(|s| nd_opt::run_opt(&s, &opts).ok())
        .collect();
    layers.set(
        "opt.export.json_roundtrip_us",
        probe(&outcomes, |o| {
            std::hint::black_box(parse_json(&nd_opt::to_json(o)).ok());
        }),
    );
}

/// Cache probes: load every entry of the workload's result cache, and
/// store the loaded results into a throwaway cache.
fn cache_probes(layers: &mut Layers, cache: &Path, throwaway: &Path) {
    let mut keys = Vec::new();
    for shard in std::fs::read_dir(cache).into_iter().flatten().flatten() {
        for e in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "json") {
                if let Some(stem) = p.file_stem().and_then(|s| s.to_str()) {
                    keys.push(stem.to_string());
                }
            }
        }
    }
    keys.sort();
    keys.truncate(400);
    let from = nd_sweep::ResultCache::at(cache);
    let entries: Vec<_> = keys
        .iter()
        .filter_map(|k| Some((k.clone(), from.load(k).ok()??)))
        .collect();
    layers.set(
        "sweep.cache.load_us",
        probe(&keys, |k| {
            std::hint::black_box(from.load(k).ok());
        }),
    );
    let to = nd_sweep::ResultCache::at(serve::fresh_dir(throwaway.to_path_buf()));
    layers.set(
        "sweep.cache.store_us",
        probe(&entries, |(k, r)| to.store(k, r)),
    );
}

// ---------------------------------------------------------------------------
// span-derived numbers shared by the workloads
// ---------------------------------------------------------------------------

/// Opt numbers from the trace and registry.
fn opt_layers(layers: &mut Layers, tree: &Tree, snap: &Snapshot) {
    let runs: Vec<usize> = tree.named("opt.run").collect();
    if !runs.is_empty() {
        // optimizer self time per run: every opt.* span except the
        // per-candidate evaluation wrapper
        let mut per_run: HashMap<Option<&str>, f64> = HashMap::new();
        for (i, s) in tree.spans.iter().enumerate() {
            if s.name.starts_with("opt.") && s.name != "opt.eval" {
                *per_run.entry(s.ctx.as_deref()).or_insert(0.0) += tree.self_ns(i) as f64;
            }
        }
        layers.set(
            "opt.run.self_us",
            us(per_run.values().sum::<f64>() / runs.len() as f64),
        );
    }
    let evals: Vec<f64> = tree
        .named("opt.eval")
        .map(|i| tree.self_ns(i) as f64)
        .collect();
    layers.set("opt.eval.self_us", us(mean(&evals)));
    for name in ["opt.evals", "opt.executed", "opt.cache_hits"] {
        layers.set(name, counter(snap, name));
    }
    let censored: f64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("opt.censored."))
        .map(|(_, v)| *v as f64)
        .sum();
    layers.set("opt.censored", censored);
    // Σ backend busy inside rounds ÷ (round wall × threads)
    let (mut busy, mut capacity) = (0f64, 0f64);
    for i in tree.named("opt.round").chain(tree.named("opt.screen")) {
        capacity += tree.spans[i].dur_ns as f64 * serve::WORKERS as f64;
        let mut stack = tree.children[i].clone();
        while let Some(c) = stack.pop() {
            if tree.spans[c].name.starts_with("backend.") {
                busy += tree.spans[c].dur_ns as f64;
            } else {
                stack.extend(tree.children[c].iter().copied());
            }
        }
    }
    if capacity > 0.0 {
        layers.set("opt.pool.parallel_eff", busy / capacity);
    }
    // exact kernel busy per class, grouped by the client's trace ids
    let mut per_class: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    for i in tree.named("backend.exact") {
        let class = tree.spans[i]
            .ctx
            .as_deref()
            .and_then(|c| c.split('-').next())
            .unwrap_or("");
        let e = per_class.entry(class).or_default();
        e.0 += tree.spans[i].dur_ns as f64;
        e.1 += 1.0;
    }
    for i in tree.named("opt.run") {
        if let Some(class) = tree.spans[i]
            .ctx
            .as_deref()
            .and_then(|c| c.split('-').next())
        {
            per_class.entry(class).or_default().2 += 1;
        }
    }
    for class in Class::ALL {
        let c = class.name();
        if let Some(&(ns, n, runs)) = per_class.get(c) {
            if runs > 0 {
                layers.set(&format!("analysis.exact.busy_us.{c}"), us(ns / runs as f64));
            }
            if ns > 0.0 {
                layers.set(&format!("analysis.exact.evals_per_s.{c}"), n / (ns / 1e9));
            }
        }
    }
}

/// Serve numbers from the trace and registry; `clients` maps trace id
/// to the client's (sent, received) on the trace clock.
fn serve_layers(
    layers: &mut Layers,
    tree: &Tree,
    snap: &Snapshot,
    clients: &HashMap<&str, (u64, u64)>,
) {
    let mut self_us = Vec::new();
    let mut overhead = Vec::new();
    for i in tree.named("serve.request") {
        self_us.push(us(tree.self_ns(i) as f64));
        let s = &tree.spans[i];
        if let Some(&(sent, recv)) = s.ctx.as_deref().and_then(|c| clients.get(c)) {
            overhead.push(us(recv.saturating_sub(sent).saturating_sub(s.dur_ns) as f64));
        }
    }
    layers.set("serve.request.self_us.p50", quantile(&self_us, 0.5));
    layers.set("serve.request.self_us.p99", quantile(&self_us, 0.99));
    layers.set("serve.http.overhead_us", median(&overhead));
    for name in ["serve.computed", "serve.coalesced", "serve.memo_hits"] {
        layers.set(name, counter(snap, name));
    }
}

/// Layer shares of the wall time of the given (trace context, start,
/// end) intervals, and the share spent inside the program's own spans.
fn attribution(layers: &mut Layers, tree: &Tree, intervals: &[(&str, u64, u64)]) {
    let mut credit = BTreeMap::new();
    let mut wall = 0f64;
    for &(ctx, a, b) in intervals {
        tree.attribute(ctx, a, b, &mut credit);
        wall += b.saturating_sub(a) as f64;
    }
    if wall <= 0.0 {
        return;
    }
    for l in LAYERS {
        layers.set(
            &format!("layer.{l}.share"),
            credit.get(l).copied().unwrap_or(0.0) / wall,
        );
    }
    let program: f64 = credit
        .iter()
        .filter(|(l, _)| **l != "client")
        .map(|(_, v)| v)
        .sum();
    layers.set("trace.attributed_frac", program / wall);
    layers.set(
        "analysis.exact.share",
        credit.get("analysis").copied().unwrap_or(0.0) / wall,
    );
}

fn pool_layers(layers: &mut Layers, snap: &Snapshot) {
    if let Some(h) = snap.histograms.get("pool.task_us") {
        layers.set("pool.task_us.p50", h.quantile(0.5));
    }
    for name in ["cache.hit", "cache.miss", "cache.store", "cache.corrupt"] {
        layers.set(name, counter(snap, name));
    }
}

fn finish(
    mut layers: Layers,
    cpu_s: f64,
    wall_s: f64,
    overhead: f64,
    attempted: u64,
    failed: u64,
) -> Report {
    layers.set("obs.trace_overhead_frac", overhead);
    layers.set("proc.cpu_util", cpu_s / (wall_s * host::nproc() as f64));
    let detail = vec![metric(
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    )];
    Report {
        metrics: layers.into_metrics(),
        detail,
        attempted,
        failed,
    }
}

// ---------------------------------------------------------------------------
// the three workloads, traced
// ---------------------------------------------------------------------------

pub fn traced(workload: &str, rng: &Rng, budget: Duration, dir: &Path) -> std::io::Result<Report> {
    let half = budget / 2;
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let mut layers = Layers::new();
    let (overhead, attempted, failed) = match workload {
        "serve-warm" => {
            let set = serve::warm_setup(rng, dir)?;
            let plain = serve::warm_run(&set, rng, half, 0.5)?;
            let (run, spans, snap) =
                traced_phase(dir, || serve::warm_run(&set, &rng.fork(7), half, 0.5))?;
            let run = run?;
            let tree = Tree::build(spans);
            warm_layers(&mut layers, &tree, &snap, &set, &run);
            let overhead = plain.sat.rate / run.sat.rate - 1.0;
            (
                overhead,
                set.checks.0 + plain.sent + run.sent,
                set.checks.1 + plain.wrong + run.wrong,
            )
        }
        "serve-cold" => {
            let plan = serve::ColdPlan::new(rng, crate::COLD_BLOCKS);
            let server = serve::cold_setup(&plan, dir)?;
            let plain = serve::cold_run(&plan, &server, half)?;
            let plain_checks = serve::cold_check(&plan, &server, &plain);
            drop(server);
            let server = serve::cold_setup(&plan, dir)?;
            let (run, spans, snap) = traced_phase(dir, || serve::cold_run(&plan, &server, half))?;
            let run = run?;
            let checks = serve::cold_check(&plan, &server, &run);
            let tree = Tree::build(spans);
            cold_layers(&mut layers, &tree, &snap, &plan, &run.records, dir);
            drop(server);
            let rate = |r: &serve::ColdRun| {
                r.records.iter().filter(|x| x.kind == Kind::Leader).count() as f64 / r.wall_s
            };
            (
                rate(&plain) / rate(&run) - 1.0,
                plain_checks.0 + checks.0,
                plain_checks.1 + checks.1,
            )
        }
        "sweep-sim" => {
            let grids = sweep::setup(rng);
            let plain = sweep::sweep_run(&grids, dir, half.as_secs_f64(), "plain");
            let (run, spans, snap) = traced_phase(dir, || {
                sweep::sweep_run(&grids, dir, half.as_secs_f64(), "traced")
            })?;
            let tree = Tree::build(spans);
            sweep_layers(&mut layers, &tree, &snap, &grids, &run, dir);
            let rate = |r: &sweep::SweepRun| {
                let cold = r.calls.iter().filter(|c| !c.cached);
                let (jobs, ms) = cold.fold((0.0, 0.0), |(j, m), c| (j + c.jobs as f64, m + c.ms));
                jobs / ms
            };
            (
                rate(&plain) / rate(&run) - 1.0,
                plain.attempted + run.attempted,
                plain.failed + run.failed,
            )
        }
        other => return Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    };
    Ok(finish(
        layers,
        host::cpu_seconds() - cpu0,
        t0.elapsed().as_secs_f64(),
        overhead,
        attempted,
        failed,
    ))
}

fn warm_layers(
    layers: &mut Layers,
    tree: &Tree,
    snap: &Snapshot,
    set: &WarmSet,
    run: &serve::WarmResult,
) {
    // the open-loop requests: at saturation a request mostly waits
    // behind the ones pipelined ahead of it on its connection
    let timings: Vec<&serve::Timing> = run.rungs.iter().flat_map(|r| &r.timings).collect();
    let clients: HashMap<&str, (u64, u64)> = timings
        .iter()
        .map(|t| (t.trace_id.as_str(), (t.sent_ns, t.recv_ns)))
        .collect();
    serve_layers(layers, tree, snap, &clients);
    let requests: Vec<(&str, u64, u64)> = timings
        .iter()
        .map(|t| (t.trace_id.as_str(), t.sent_ns, t.recv_ns))
        .collect();
    attribution(layers, tree, &requests);
    layers.set("serve.response_bytes", mean(&run.sat.bytes));
    layers.set(
        "client.lateness_p99_ms",
        quantile(&run.rungs[0].lateness_ms, 0.99),
    );
    pool_layers(layers, snap);
    let bodies: Vec<(nd_serve::Endpoint, String)> = set
        .items
        .iter()
        .filter_map(|i| Some((nd_serve::Endpoint::from_path(i.path)?, i.body.clone())))
        .collect();
    let docs: Vec<Value> = set.fronts.iter().map(|(_, d)| d.clone()).collect();
    api_probes(layers, &bodies, &docs);
    kernel_probes(layers, &set.fronts);
    let specs: Vec<&Spec> = set.fronts.iter().map(|(s, _)| s).step_by(4).collect();
    export_probe(layers, &specs, &set.cache_dir);
}

fn cold_layers(
    layers: &mut Layers,
    tree: &Tree,
    snap: &Snapshot,
    plan: &serve::ColdPlan,
    records: &[ColdRecord],
    dir: &Path,
) {
    let cache = &dir.join("cache");
    let clients: HashMap<&str, (u64, u64)> = records
        .iter()
        .map(|r| {
            (
                r.timing.trace_id.as_str(),
                (r.timing.sent_ns, r.timing.recv_ns),
            )
        })
        .collect();
    serve_layers(layers, tree, snap, &clients);
    let bytes: Vec<f64> = records.iter().map(|r| r.body.len() as f64).collect();
    layers.set("serve.response_bytes", mean(&bytes));
    let followers = records.iter().filter(|r| r.kind == Kind::Follower).count();
    if followers > 0 {
        layers.set(
            "serve.coalesce_ratio",
            counter(snap, "serve.coalesced") / followers as f64,
        );
    }
    opt_layers(layers, tree, snap);
    pool_layers(layers, snap);
    // leader requests: their wall split by layer
    let leaders: Vec<(&str, u64, u64)> = records
        .iter()
        .filter(|r| r.kind == Kind::Leader)
        .map(|r| {
            (
                r.timing.trace_id.as_str(),
                r.timing.sent_ns,
                r.timing.recv_ns,
            )
        })
        .collect();
    attribution(layers, tree, &leaders);
    // useful front points per attempted evaluation, and the probes on
    // the leaders' own documents
    let mut fronts = Vec::new();
    let (mut points, mut evaluated) = (0f64, 0f64);
    let mut bodies = Vec::new();
    for r in records.iter().filter(|r| r.kind == Kind::Leader) {
        let spec = &plan.specs[r.spec];
        bodies.push((nd_serve::Endpoint::Front, spec.body(None)));
        let Some(doc) = serve::result_slice(&r.body).and_then(|s| parse_json(s).ok()) else {
            continue;
        };
        for f in doc
            .as_table()
            .and_then(|t| t.get("fronts"))
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
            .filter_map(Value::as_table)
        {
            points += f
                .get("front")
                .and_then(Value::as_array)
                .map_or(0, |a| a.len()) as f64;
            evaluated += f.get("evaluated").and_then(Value::as_i64).unwrap_or(0) as f64;
        }
        fronts.push((spec.clone(), doc));
    }
    if evaluated > 0.0 {
        layers.set("opt.front_points_per_eval", points / evaluated);
    }
    let docs: Vec<Value> = fronts.iter().map(|(_, d)| d.clone()).collect();
    api_probes(layers, &bodies, &docs);
    kernel_probes(layers, &fronts);
    let specs: Vec<&Spec> = fronts.iter().map(|(s, _)| s).step_by(8).take(12).collect();
    export_probe(layers, &specs, cache);
    cache_probes(layers, cache, &dir.join("probe-cache"));
}

fn sweep_layers(
    layers: &mut Layers,
    tree: &Tree,
    snap: &Snapshot,
    grids: &[Grid],
    run: &sweep::SweepRun,
    dir: &Path,
) {
    pool_layers(layers, snap);
    let cold_calls: Vec<(&str, u64, u64)> = run
        .calls
        .iter()
        .filter(|c| !c.cached)
        .map(|c| (c.ctx.as_str(), c.start_ns, c.end_ns))
        .collect();
    attribution(layers, tree, &cold_calls);
    let probe_ns: f64 = tree
        .named("sweep.cache_probe")
        .map(|i| tree.spans[i].dur_ns as f64)
        .sum();
    let all_jobs: f64 = run.calls.iter().map(|c| c.jobs as f64).sum();
    layers.set("sweep.cache_probe_us", us(probe_ns / all_jobs.max(1.0)));
    let job_self: Vec<f64> = tree
        .named("sweep.job")
        .map(|i| us(tree.self_ns(i) as f64))
        .collect();
    layers.set("sweep.job.self_us", mean(&job_self));
    // expand + job content hash over every grid, per job
    let per_pass = probe(&[()], |_| {
        for g in grids {
            for j in nd_sweep::expand(&g.spec) {
                std::hint::black_box(j.content_hash(&g.spec));
            }
        }
    });
    let jobs_per_pass: usize = grids.iter().map(|g| nd_sweep::expand(&g.spec).len()).sum();
    layers.set(
        "sweep.expand_hash_us",
        per_pass / jobs_per_pass.max(1) as f64,
    );
    // simulation engines: busy time and throughput per grid
    let busy = |ctx_part: &str, name: &str| -> (f64, usize) {
        tree.named(name)
            .filter(|&i| {
                tree.spans[i]
                    .ctx
                    .as_deref()
                    .is_some_and(|c| c.contains(ctx_part))
            })
            .fold((0.0, 0), |(ns, n), i| {
                (ns + tree.spans[i].dur_ns as f64, n + 1)
            })
    };
    let (mc_ns, mc_jobs) = busy("-shootout-cold", "backend.montecarlo");
    if mc_jobs > 0 {
        layers.set("backend.montecarlo.busy_us", us(mc_ns / mc_jobs as f64));
        let trials = grids
            .iter()
            .find(|g| g.name == "shootout")
            .map_or(0, |g| g.trials);
        layers.set("sim.runs_per_s", (mc_jobs * trials) as f64 / (mc_ns / 1e9));
    }
    for (grid, metric_name) in [
        ("sparse", "netsim.events_per_s.sparse"),
        ("dense", "netsim.events_per_s.dense"),
    ] {
        let (ns, _) = busy(&format!("-{grid}-cold"), "backend.netsim");
        let events: u64 = run
            .calls
            .iter()
            .filter(|c| !c.cached && grids[c.grid].name == grid)
            .map(|c| c.netsim_events)
            .sum();
        if ns > 0.0 {
            layers.set(metric_name, events as f64 / (ns / 1e9));
        }
    }
    layers.set(
        "netsim.wheel_cascades",
        counter(snap, "netsim.wheel_cascades"),
    );
    layers.set(
        "netsim.wheel_depth_max",
        gauge(snap, "netsim.wheel_depth_max"),
    );
    cache_probes(layers, &dir.join("cache"), &dir.join("probe-cache"));
}
