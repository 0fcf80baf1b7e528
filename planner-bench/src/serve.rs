//! The serve-warm and serve-cold workloads: nd-serve in-process on
//! loopback, driven by at most two client threads over two keep-alive
//! connections.

use crate::client::{Conn, Response};
use crate::specs::{Class, OmegaPool, Spec, CODE_BASED, COPRIME, UNIFORM};
use crate::stats::{fnv64, median, quantile, Rng};
use nd_opt::OptOptions;
use nd_serve::{http, App, Planner};
use nd_sweep::value::{parse_json, Value};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// HTTP connection workers, and evaluation threads per search.
pub const WORKERS: usize = 2;

/// The daemon as `nd-serve serve --workers 2` runs it, minus the CLI:
/// planner, router and HTTP server on an ephemeral loopback port.
pub struct Daemon {
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    pub fn start(cache_dir: &Path, memo_capacity: usize) -> std::io::Result<Daemon> {
        let opts = OptOptions {
            threads: Some(WORKERS),
            use_cache: true,
            cache_dir: Some(cache_dir.to_path_buf()),
            strict_cache: true,
        };
        let planner = Arc::new(Planner::new(opts, memo_capacity));
        let server = http::Server::bind("127.0.0.1:0")?;
        let addr = server.addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let app = App::new(planner, Arc::clone(&shutdown), addr);
        let handler = Arc::new(move |req: &http::Request| app.route(req));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || server.run(WORKERS, flag, handler));
        Ok(Daemon {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// Stop accepting, wait for every worker. Clients must have closed
    /// their connections first (workers serve a connection until EOF).
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if let Some(t) = self.thread.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            http::wake(self.addr);
            if t.join().is_err() {
                eprintln!("planner-bench: the server thread panicked");
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.halt();
    }
}

/// A fresh, empty directory.
pub fn fresh_dir(path: PathBuf) -> PathBuf {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("the output directory is writable");
    path
}

/// The `result` member of a response envelope, as the bytes the server
/// sent (`api`, `result`, `served` are the envelope's keys, in order).
pub fn result_slice(body: &str) -> Option<&str> {
    let start = body.find("\"result\": ")? + "\"result\": ".len();
    let end = body.rfind(",\n  \"served\": ")?;
    (start <= end).then(|| &body[start..end])
}

/// The response's `served` block, parsed.
struct ServedBlock {
    memo: bool,
    coalesced: bool,
    executed: i64,
    cache_hits: i64,
}

fn served_block(body: &str) -> Option<ServedBlock> {
    let start = body.rfind("\"served\": ")? + "\"served\": ".len();
    // the envelope's own closing brace follows the block
    let v = parse_json(body[start..].trim_end().strip_suffix('}')?).ok()?;
    let t = v.as_table()?;
    Some(ServedBlock {
        memo: t.get("memo")?.as_bool()?,
        coalesced: t.get("coalesced")?.as_bool()?,
        executed: t.get("executed")?.as_i64()?,
        cache_hits: t.get("cache_hits")?.as_i64()?,
    })
}

/// The front document's points (one protocol per spec here).
fn front_points(doc: &Value) -> Vec<&Value> {
    doc.as_table()
        .and_then(|t| t.get("fronts"))
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|f| f.as_table()?.get("front")?.as_array())
        .flatten()
        .collect()
}

fn point_f64(p: &Value, key: &str) -> Option<f64> {
    p.as_table()?.get(key)?.as_f64()
}

/// Theorem 5.5/5.7 oracle: a `worst`-objective front point below its
/// bound (negative gap) would beat the proven optimum.
fn beats_bound(spec: &Spec, doc: &Value) -> bool {
    spec.is_worst_objective()
        && front_points(doc)
            .iter()
            .any(|p| point_f64(p, "gap_frac").is_some_and(|g| g < 0.0))
}

/// A front document without its cost counters (`executed`,
/// `cache_hits` per front), which describe how this particular answer
/// was produced rather than what it is.
fn without_costs(doc: &Value) -> Value {
    let mut doc = doc.clone();
    if let Value::Table(t) = &mut doc {
        if let Some(Value::Array(fronts)) = t.get_mut("fronts") {
            for f in fronts {
                if let Value::Table(ft) = f {
                    ft.remove("executed");
                    ft.remove("cache_hits");
                }
            }
        }
    }
    doc
}

// ---------------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------------

/// One warm request kind: a prewarmed spec on one endpoint, with the
/// fingerprint of the first (cold) answer it must reproduce.
pub struct Item {
    pub path: &'static str,
    pub body: String,
    pub expect: u64,
    pub class: Class,
}

/// The prewarmed working set of serve-warm.
pub struct WarmSet {
    pub items: Vec<Item>,
    /// Per spec: indices into `items` of front, gap, and the bests.
    by_spec: Vec<(usize, usize, Vec<usize>)>,
    pub daemon: Daemon,
    /// Setup checks attempted / failed.
    pub checks: (u64, u64),
    /// Parsed front documents, for the layer probes.
    pub fronts: Vec<(Spec, Value)>,
    /// The daemon's result cache.
    pub cache_dir: PathBuf,
}

pub const WARM_SPECS: usize = 32;
const BUDGETS_PER_SPEC: usize = 3;

/// Send every request over two connections (alternating), each
/// connection closed-loop; answers come back in request order.
fn call_all(
    addr: SocketAddr,
    reqs: &[(&'static str, String, String)],
) -> std::io::Result<Vec<Response>> {
    let halves: Vec<std::io::Result<Vec<(usize, Response)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                s.spawn(move || -> std::io::Result<Vec<(usize, Response)>> {
                    let mut conn = Conn::open(addr)?;
                    let mut out = Vec::new();
                    for (i, (path, trace_id, body)) in reqs.iter().enumerate().skip(c).step_by(2) {
                        out.push((i, conn.call(path, trace_id, body)?));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Vec::with_capacity(reqs.len());
    for half in halves {
        all.extend(half?);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, r)| r).collect())
}

/// Start a daemon and prewarm 32 exact specs (8 of each uniform and
/// code-based shape) over two connections, recording each endpoint's
/// first answer: `/v1/front` computes, `/v1/gap` and three seeded
/// `/v1/best` budgets per spec are then derived from the memo.
pub fn warm_setup(rng: &Rng, dir: &Path) -> std::io::Result<WarmSet> {
    let mut omegas = OmegaPool::new(&mut rng.fork(1));
    let mut brng = rng.fork(2);
    let shapes = [UNIFORM[0], UNIFORM[1], CODE_BASED[0], CODE_BASED[1]];
    let specs: Vec<Spec> = (0..WARM_SPECS)
        .map(|i| omegas.spec(shapes[i % shapes.len()]))
        .collect();
    let cache_dir = fresh_dir(dir.join("cache"));
    let daemon = Daemon::start(&cache_dir, 1024)?;

    let front_reqs: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| ("/v1/front", format!("prewarm-front-{i}"), s.body(None)))
        .collect();
    let answers = call_all(daemon.addr, &front_reqs)?;
    let mut checks = (0u64, 0u64);
    let mut items = Vec::new();
    let mut fronts = Vec::new();
    let mut follow_ups = Vec::new();
    for (i, (spec, r)) in specs.iter().zip(&answers).enumerate() {
        let slice = result_slice(&r.body).unwrap_or("");
        let doc = parse_json(slice).ok();
        checks.0 += 1;
        if r.status != 200 || doc.as_ref().is_none_or(|d| beats_bound(spec, d)) {
            checks.1 += 1;
        }
        let doc = doc.unwrap_or(Value::Null);
        let dcs: Vec<f64> = front_points(&doc)
            .iter()
            .filter_map(|p| point_f64(p, "duty_cycle"))
            .collect();
        let lo = dcs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = dcs.iter().copied().fold(0.0, f64::max);
        items.push(Item {
            path: "/v1/front",
            body: spec.body(None),
            expect: fnv64(slice.as_bytes()),
            class: spec.shape.class,
        });
        follow_ups.push(("/v1/gap", format!("prewarm-gap-{i}"), spec.body(None)));
        for _ in 0..BUDGETS_PER_SPEC {
            let budget = if dcs.is_empty() {
                0.5
            } else {
                (lo + (0.05 + 0.95 * brng.f64()) * (hi - lo)).min(1.0)
            };
            follow_ups.push((
                "/v1/best",
                format!("prewarm-best-{i}"),
                spec.body(Some(budget)),
            ));
        }
        fronts.push((spec.clone(), doc));
    }
    let answers = call_all(daemon.addr, &follow_ups)?;
    // follow-ups run per spec: the gap, then the bests
    let per = 1 + BUDGETS_PER_SPEC;
    for (k, ((path, _, body), r)) in follow_ups.into_iter().zip(&answers).enumerate() {
        let slice = result_slice(&r.body);
        checks.0 += 1;
        if r.status != 200 || slice.is_none() {
            checks.1 += 1;
        }
        items.push(Item {
            path,
            body,
            expect: fnv64(slice.unwrap_or("").as_bytes()),
            class: specs[k / per].shape.class,
        });
    }
    let by_spec = (0..WARM_SPECS)
        .map(|i| {
            let base = WARM_SPECS + i * per;
            (i, base, (base + 1..base + per).collect())
        })
        .collect();
    Ok(WarmSet {
        items,
        by_spec,
        daemon,
        checks,
        fronts,
        cache_dir,
    })
}

/// One answered request on the trace clock ([`nd_obs::trace::now_ns`]),
/// so client timings line up with the server's spans.
#[derive(Clone, Debug)]
pub struct Timing {
    pub trace_id: String,
    /// When the request was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
}

impl Timing {
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// One rung of the warm rate ladder.
#[derive(Default)]
pub struct Rung {
    pub rate: f64,
    pub latency_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub bytes: Vec<f64>,
    /// Per-request timings, kept only while tracing (the traced run
    /// joins them with the server's spans).
    pub timings: Vec<Timing>,
    pub sent: u64,
    /// Answers that were wrong (status, trace id or result bytes).
    pub failed: u64,
    /// Requests still unanswered when the rung's drain time ran out.
    pub lost: u64,
    /// Whether the queue grew on any connection during any slice.
    pub backlog: bool,
}

/// The latency limit a warm request must meet at the 99th percentile
/// (ROADMAP 1(e)).
pub const WARM_P99_LIMIT_MS: f64 = 1.0;

impl Rung {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    pub fn passes(&self) -> bool {
        self.failed == 0
            && self.lost == 0
            && !self.latency_ms.is_empty()
            && self.p(0.99) <= WARM_P99_LIMIT_MS
            && !self.backlog
    }

    fn absorb(&mut self, other: Rung) {
        self.latency_ms.extend(other.latency_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.bytes.extend(other.bytes);
        self.timings.extend(other.timings);
        self.sent += other.sent;
        self.failed += other.failed;
        self.lost += other.lost;
        self.backlog |= other.backlog;
    }
}

/// Whether a queue grew over answers in arrival order: the last
/// quarter's median latency is over twice the first quarter's and over
/// the limit.
fn growing(latency_ms: &[f64]) -> bool {
    let n = latency_ms.len();
    if n < 8 {
        return false;
    }
    let first = median(&latency_ms[..n / 4]);
    let last = median(&latency_ms[n - n / 4..]);
    last > 2.0 * first && last > WARM_P99_LIMIT_MS
}

/// Longest a rung waits for its last answers before counting them lost.
const DRAIN: Duration = Duration::from_secs(10);

/// Open loop at `rate` requests/s for `dur`: each connection sends its
/// own seeded Poisson stream at half the rate, pipelined, and times
/// every answer from the moment its request was due.
pub fn open_loop(set: &WarmSet, conns: &mut [Conn], rate: f64, dur: Duration, rng: &Rng) -> Rung {
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + dur;
    let per_conn = rate / conns.len() as f64;
    let halves: Vec<Rung> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut rng = rng.fork(c as u64 + 1);
                s.spawn(move || open_loop_conn(set, conn, per_conn, start, end, &mut rng, c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut rung = Rung {
        rate,
        ..Rung::default()
    };
    for h in halves {
        rung.absorb(h);
    }
    rung
}

/// Pick a warm request: a uniformly drawn spec on `/v1/front` (50%),
/// `/v1/best` with one of its budgets (30%) or `/v1/gap` (20%).
fn pick(set: &WarmSet, rng: &mut Rng) -> usize {
    let (front, gap, bests) = &set.by_spec[rng.below(set.by_spec.len())];
    let u = rng.f64();
    if u < 0.5 {
        *front
    } else if u < 0.8 {
        bests[rng.below(bests.len())]
    } else {
        *gap
    }
}

fn open_loop_conn(
    set: &WarmSet,
    conn: &mut Conn,
    rate: f64,
    start: Instant,
    end: Instant,
    rng: &mut Rng,
    c: usize,
) -> Rung {
    let mut rung = Rung::default();
    let mut pending: std::collections::VecDeque<(Instant, u64, usize, String)> =
        std::collections::VecDeque::new();
    let mut next_due = start + Duration::from_secs_f64(rng.exp(1.0 / rate));
    let mut seq = 0u64;
    // trace clock offset: Instant → now_ns
    let (anchor, anchor_ns) = (Instant::now(), nd_obs::trace::now_ns());
    let ns_of =
        |t: Instant| anchor_ns as i64 + (t.saturating_duration_since(anchor).as_nanos() as i64);
    loop {
        let now = Instant::now();
        if next_due < end && next_due <= now {
            let idx = pick(set, rng);
            let item = &set.items[idx];
            let trace_id = format!("{}-warm-{c}-{seq}", item.class.name());
            seq += 1;
            let sent_ns = nd_obs::trace::now_ns();
            rung.sent += 1;
            rung.lateness_ms
                .push(now.saturating_duration_since(next_due).as_secs_f64() * 1e3);
            if conn.send(item.path, &trace_id, &item.body).is_err() {
                rung.lost += 1;
            } else {
                pending.push_back((next_due, sent_ns, idx, trace_id));
            }
            next_due += Duration::from_secs_f64(rng.exp(1.0 / rate));
            continue;
        }
        if next_due >= end && pending.is_empty() {
            break;
        }
        let wait_until = if next_due < end {
            next_due
        } else {
            end + DRAIN
        };
        if now >= end + DRAIN {
            rung.lost += pending.len() as u64;
            break;
        }
        match conn.recv_until(wait_until) {
            Ok(Some(resp)) => {
                let recv_ns = nd_obs::trace::now_ns();
                let Some((due, sent_ns, idx, trace_id)) = pending.pop_front() else {
                    rung.failed += 1;
                    continue;
                };
                if !answers(set, idx, &trace_id, &resp) {
                    rung.failed += 1;
                }
                let due_ns = ns_of(due).max(0) as u64;
                rung.latency_ms
                    .push(recv_ns.saturating_sub(due_ns) as f64 / 1e6);
                rung.bytes.push(resp.body.len() as f64);
                if nd_obs::trace::enabled() {
                    rung.timings.push(Timing {
                        trace_id,
                        due_ns,
                        sent_ns,
                        recv_ns,
                    });
                }
            }
            Ok(None) => {}
            Err(_) => {
                rung.lost += pending.len() as u64;
                break;
            }
        }
    }
    rung.backlog = growing(&rung.latency_ms);
    rung
}

/// Whether `resp` is the right answer to warm request `idx`: a 200
/// carrying the request's trace id and the cold answer's exact bytes.
fn answers(set: &WarmSet, idx: usize, trace_id: &str, resp: &Response) -> bool {
    resp.status == 200
        && resp.trace_id == trace_id
        && result_slice(&resp.body).map(|s| fnv64(s.as_bytes())) == Some(set.items[idx].expect)
}

/// Closed loop at saturation: each connection keeps `window` requests
/// in flight, sending the next as each answer arrives, for `dur`.
/// Latency is timed from send.
pub fn saturate(
    set: &WarmSet,
    conns: &mut [Conn],
    window: usize,
    dur: Duration,
    rng: &Rng,
) -> Rung {
    let t0 = Instant::now();
    let end = t0 + dur;
    let halves: Vec<Rung> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut rng = rng.fork(c as u64 + 1);
                s.spawn(move || {
                    let mut rung = Rung::default();
                    let mut pending = std::collections::VecDeque::new();
                    let mut seq = 0u64;
                    loop {
                        while pending.len() < window && Instant::now() < end {
                            let idx = pick(set, &mut rng);
                            let item = &set.items[idx];
                            let trace_id = format!("{}-sat-{c}-{seq}", item.class.name());
                            seq += 1;
                            rung.sent += 1;
                            let sent_ns = nd_obs::trace::now_ns();
                            if conn.send(item.path, &trace_id, &item.body).is_err() {
                                rung.lost += 1;
                                continue;
                            }
                            pending.push_back((sent_ns, idx, trace_id));
                        }
                        if pending.is_empty() {
                            break;
                        }
                        match conn.recv_until(end + DRAIN) {
                            Ok(Some(resp)) => {
                                let recv_ns = nd_obs::trace::now_ns();
                                let (sent_ns, idx, trace_id) =
                                    pending.pop_front().expect("an answer follows a request");
                                if !answers(set, idx, &trace_id, &resp) {
                                    rung.failed += 1;
                                }
                                rung.latency_ms.push((recv_ns - sent_ns) as f64 / 1e6);
                                rung.bytes.push(resp.body.len() as f64);
                                if nd_obs::trace::enabled() {
                                    rung.timings.push(Timing {
                                        trace_id,
                                        due_ns: sent_ns,
                                        sent_ns,
                                        recv_ns,
                                    });
                                }
                            }
                            _ => {
                                rung.lost += pending.len() as u64;
                                break;
                            }
                        }
                    }
                    rung
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut rung = Rung::default();
    for h in halves {
        rung.absorb(h);
    }
    rung.rate = rung.latency_ms.len() as f64 / t0.elapsed().as_secs_f64();
    rung
}

/// The open-loop rates, requests/s: the reference rate first, then
/// twice and four times it.
pub const LADDER: [f64; 3] = [500.0, 1000.0, 2000.0];

/// Slice length per rate: half a second of the reference rate's worth
/// of requests, so each slice carries about 250 samples.
fn slice(rate: f64) -> Duration {
    Duration::from_secs_f64(250.0 / rate)
}

/// In-flight requests per connection in the saturation phase.
pub const WINDOW: usize = 8;

pub struct WarmResult {
    /// One rung per [`LADDER`] rate.
    pub rungs: Vec<Rung>,
    /// The saturation phase.
    pub sat: Rung,
    /// Process CPU milliseconds per answer in the saturation phase
    /// (server and client together).
    pub sat_cpu_ms: f64,
    /// Highest ladder rate with p99 ≤ 1 ms, no lost or wrong answers and
    /// no growing backlog, requests/s (0 when none qualified).
    pub max_rps: f64,
    /// Requests sent and wrong answers over both phases.
    pub sent: u64,
    pub wrong: u64,
}

/// serve-warm's measurement: an open loop cycling through the ladder
/// rates in short slices for `open_share` of `budget` (so a slow spell
/// of the host hits every rate alike), then a saturating closed loop
/// for the rest.
pub fn warm_run(
    set: &WarmSet,
    rng: &Rng,
    budget: Duration,
    open_share: f64,
) -> std::io::Result<WarmResult> {
    let t0 = Instant::now();
    let mut conns: Vec<Conn> = (0..2)
        .map(|_| Conn::open(set.daemon.addr))
        .collect::<std::io::Result<_>>()?;
    let mut rungs: Vec<Rung> = LADDER
        .iter()
        .map(|&rate| Rung {
            rate,
            ..Rung::default()
        })
        .collect();
    let open = budget.mul_f64(open_share);
    let cycle: Duration = LADDER.iter().map(|&r| slice(r)).sum();
    let mut n = 0u64;
    while n == 0 || t0.elapsed() + cycle <= open {
        for rung in rungs.iter_mut() {
            n += 1;
            let part = open_loop(
                set,
                &mut conns,
                rung.rate,
                slice(rung.rate),
                &rng.fork(100 + n),
            );
            rung.absorb(part);
        }
    }
    let cpu0 = crate::host::cpu_seconds();
    let sat = saturate(
        set,
        &mut conns,
        WINDOW,
        budget.saturating_sub(t0.elapsed()),
        &rng.fork(99),
    );
    let sat_cpu_ms = (crate::host::cpu_seconds() - cpu0) * 1e3 / sat.latency_ms.len().max(1) as f64;
    let max_rps = rungs
        .iter()
        .filter(|r| r.passes())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    let sent = rungs.iter().map(|r| r.sent).sum::<u64>() + sat.sent;
    let wrong = rungs.iter().map(|r| r.failed + r.lost).sum::<u64>() + sat.failed + sat.lost;
    Ok(WarmResult {
        rungs,
        sat,
        sat_cpu_ms,
        max_rps,
        sent,
        wrong,
    })
}

// ---------------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------------

/// The memo capacity serve-cold runs with: below one block's working
/// set, so every spec is evicted two blocks after it was computed.
pub const COLD_MEMO: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// First request for a new spec: computes the front.
    Leader,
    /// Same new spec, sent at the same time as its leader: coalesces.
    Follower,
    /// A spec evicted from the memo: recomputed from the result cache.
    Reask,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Leader => "leader",
            Kind::Follower => "follower",
            Kind::Reask => "reask",
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Slot {
    New(usize),
    Reask(usize),
}

/// One lockstep step: both connections send at the same instant. A
/// herd step sends the same new spec on both.
#[derive(Clone, Copy, Debug)]
struct Step {
    slots: [Slot; 2],
    herd: bool,
}

/// The seeded request stream of serve-cold, in blocks of six steps
/// (twelve requests): two herd pairs (one code-based, one co-prime),
/// six solo new specs (three uniform, two code-based, one co-prime) and
/// two re-asks of specs computed two blocks earlier — so a third of
/// the requests are herd members and a sixth are re-asks, and every
/// block carries the same class mix. Per block the eight leaders are
/// 3 uniform, 3 code-based and 2 co-prime, which puts the leader median
/// inside the code-based class and p90 inside the co-prime class rather
/// than on a boundary between classes. Only step order, connection
/// assignment, re-ask targets and ω are seeded.
pub struct ColdPlan {
    pub specs: Vec<Spec>,
    blocks: Vec<Vec<Step>>,
    /// Specs computed during set-up, re-asked by the first two blocks.
    warmup: Vec<usize>,
}

impl ColdPlan {
    pub fn new(rng: &Rng, n_blocks: usize) -> ColdPlan {
        let mut omegas = OmegaPool::new(&mut rng.fork(11));
        let mut order = rng.fork(12);
        let mut specs: Vec<Spec> = Vec::new();
        fn add(specs: &mut Vec<Spec>, spec: Spec) -> usize {
            specs.push(spec);
            specs.len() - 1
        }
        // re-ask classes per block rotate through all three
        let reask_class = |b: usize, j: usize| Class::ALL[(2 * b + j) % 3];
        // set-up computes the first two blocks' re-ask targets; their ω
        // lies below the seeded range, so set-up is the same for every
        // seed
        let warmup: Vec<usize> = (0..2)
            .flat_map(|b| (0..2).map(move |j| (b, j)))
            .map(|(b, j)| {
                let shape = match reask_class(b, j) {
                    Class::Uniform => UNIFORM[(b + j) % 2],
                    Class::CodeBased => CODE_BASED[(b + j) % 2],
                    Class::Coprime => COPRIME[(b + j) % COPRIME.len()],
                };
                add(&mut specs, Spec::new(shape, 12.0 + (2 * b + j) as f64))
            })
            .collect();
        let mut new_by_block: Vec<Vec<usize>> = Vec::new();
        let mut blocks = Vec::new();
        for b in 0..n_blocks {
            let cb_herd = add(&mut specs, omegas.spec(CODE_BASED[b % 2]));
            let cp_herd = add(&mut specs, omegas.spec(COPRIME[(2 * b) % COPRIME.len()]));
            let u: Vec<usize> = [0, 1, b % 2]
                .iter()
                .map(|&i| add(&mut specs, omegas.spec(UNIFORM[i])))
                .collect();
            let cb_solo: Vec<usize> = [(b + 1) % 2, b % 2]
                .iter()
                .map(|&i| add(&mut specs, omegas.spec(CODE_BASED[i])))
                .collect();
            let cp_solo = add(
                &mut specs,
                omegas.spec(COPRIME[(2 * b + 1) % COPRIME.len()]),
            );
            let reask: Vec<usize> = (0..2)
                .map(|j| {
                    if b < 2 {
                        return warmup[2 * b + j];
                    }
                    let class = reask_class(b, j);
                    let pool: Vec<usize> = new_by_block[b - 2]
                        .iter()
                        .copied()
                        .filter(|&s| specs[s].shape.class == class)
                        .collect();
                    pool[order.below(pool.len())]
                })
                .collect();
            new_by_block.push(vec![
                cb_herd, cp_herd, u[0], u[1], u[2], cb_solo[0], cb_solo[1], cp_solo,
            ]);
            let step = |a: Slot, b: Slot| Step {
                slots: [a, b],
                herd: false,
            };
            let mut steps = vec![
                Step {
                    slots: [Slot::New(cb_herd), Slot::New(cb_herd)],
                    herd: true,
                },
                Step {
                    slots: [Slot::New(cp_herd), Slot::New(cp_herd)],
                    herd: true,
                },
                step(Slot::New(u[0]), Slot::New(u[1])),
                step(Slot::New(cb_solo[0]), Slot::New(u[2])),
                step(Slot::New(cb_solo[1]), Slot::Reask(reask[0])),
                step(Slot::New(cp_solo), Slot::Reask(reask[1])),
            ];
            order.shuffle(&mut steps);
            for step in &mut steps {
                if order.below(2) == 1 {
                    step.slots.swap(0, 1);
                }
            }
            blocks.push(steps);
        }
        ColdPlan {
            specs,
            blocks,
            warmup,
        }
    }
}

/// One serve-cold answer.
pub struct ColdRecord {
    pub kind: Kind,
    pub spec: usize,
    pub timing: Timing,
    pub status: u16,
    pub body: String,
    /// Block and step, pairing herd members.
    step: (usize, usize),
}

/// A started serve-cold daemon: fresh memo, fresh result cache that
/// already holds the warm-up specs' evaluations.
pub struct ColdServer {
    pub daemon: Daemon,
    /// Spec index → normalized front document of its first answer.
    originals: std::collections::HashMap<usize, String>,
    pub checks: (u64, u64),
}

/// Set-up: compute the warm-up specs on a throwaway daemon, then start
/// the measured daemon on the same result cache with an empty memo.
pub fn cold_setup(plan: &ColdPlan, dir: &Path) -> std::io::Result<ColdServer> {
    let cache = fresh_dir(dir.join("cache"));
    let warm = Daemon::start(&cache, COLD_MEMO)?;
    let reqs: Vec<_> = plan
        .warmup
        .iter()
        .map(|&i| ("/v1/front", format!("warmup-{i}"), plan.specs[i].body(None)))
        .collect();
    let answers = call_all(warm.addr, &reqs)?;
    warm.stop();
    let mut checks = (0u64, 0u64);
    let mut originals = std::collections::HashMap::new();
    for (&i, r) in plan.warmup.iter().zip(&answers) {
        checks.0 += 1;
        match result_slice(&r.body).and_then(|s| parse_json(s).ok()) {
            Some(doc) if r.status == 200 && !beats_bound(&plan.specs[i], &doc) => {
                originals.insert(i, without_costs(&doc).to_json());
            }
            _ => checks.1 += 1,
        }
    }
    Ok(ColdServer {
        daemon: Daemon::start(&cache, COLD_MEMO)?,
        originals,
        checks,
    })
}

pub struct ColdRun {
    pub records: Vec<ColdRecord>,
    pub wall_s: f64,
    pub blocks: usize,
}

/// Closed loop, two connections in lockstep: at each step both send,
/// then both wait for their answers. Whole blocks run until `budget`
/// has passed, so every run carries the same class mix.
pub fn cold_run(
    plan: &ColdPlan,
    server: &ColdServer,
    budget: Duration,
) -> std::io::Result<ColdRun> {
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let addr = server.daemon.addr;
    let halves: Vec<std::io::Result<(Vec<ColdRecord>, usize)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || -> std::io::Result<(Vec<ColdRecord>, usize)> {
                    let mut conn = Conn::open(addr)?;
                    let mut out = Vec::new();
                    let mut done = 0;
                    for (b, steps) in plan.blocks.iter().enumerate() {
                        for (k, step) in steps.iter().enumerate() {
                            barrier.wait();
                            let (spec, kind) = match step.slots[c] {
                                Slot::New(i) => (i, Kind::Leader),
                                Slot::Reask(i) => (i, Kind::Reask),
                            };
                            let class = plan.specs[spec].shape.class;
                            let label = if step.herd { "herd" } else { kind.name() };
                            let trace_id = format!("{}-{label}-{b}-{k}-{c}", class.name());
                            let sent_ns = nd_obs::trace::now_ns();
                            let r = {
                                let _ctx = nd_obs::trace::push_context(trace_id.as_str());
                                let _span = nd_obs::span!("bench.request", kind = label);
                                conn.call("/v1/front", &trace_id, &plan.specs[spec].body(None))
                            };
                            let recv_ns = nd_obs::trace::now_ns();
                            let (status, body) = match r {
                                Ok(r) => (r.status, r.body),
                                Err(e) => (0, format!("transport error: {e}")),
                            };
                            out.push(ColdRecord {
                                kind,
                                spec,
                                timing: Timing {
                                    trace_id,
                                    due_ns: sent_ns,
                                    sent_ns,
                                    recv_ns,
                                },
                                status,
                                body,
                                step: (b, k),
                            });
                        }
                        done = b + 1;
                        if c == 0 && t0.elapsed() >= budget {
                            stop.store(true, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Ok((out, done))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut records = Vec::new();
    let mut blocks = 0;
    for h in halves {
        let (r, done) = h?;
        records.extend(r);
        blocks = done;
    }
    // herd pairs: the member the server coalesced is the follower
    records.sort_by_key(|r| (r.step, r.timing.trace_id.clone()));
    let mut i = 0;
    while i + 1 < records.len() {
        if records[i].step == records[i + 1].step && records[i].spec == records[i + 1].spec {
            let second_coalesced = served_block(&records[i + 1].body).is_some_and(|s| s.coalesced);
            let follower = if second_coalesced { i + 1 } else { i };
            records[follower].kind = Kind::Follower;
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(ColdRun {
        records,
        wall_s,
        blocks,
    })
}

/// Check every serve-cold answer; returns (attempted, failed).
///
/// - every answer is a 200 with a front document;
/// - a leader computed (not memo, not coalesced, executed > 0);
/// - a follower was coalesced onto its leader (executed = 0) and got
///   byte-identical `result` bytes;
/// - a re-ask recomputed from the result cache alone (executed = 0,
///   cache_hits > 0) and its front equals the first answer's;
/// - no `worst`-objective front point beats its bound.
pub fn cold_check(plan: &ColdPlan, server: &ColdServer, run: &ColdRun) -> (u64, u64) {
    let mut originals = server.originals.clone();
    let mut leader_slices: std::collections::HashMap<usize, &str> = Default::default();
    for r in run.records.iter().filter(|r| r.kind == Kind::Leader) {
        if let Some(s) = result_slice(&r.body) {
            leader_slices.insert(r.spec, s);
            if let Ok(doc) = parse_json(s) {
                originals.insert(r.spec, without_costs(&doc).to_json());
            }
        }
    }
    let mut failed = 0;
    for r in &run.records {
        let served = served_block(&r.body);
        let slice = result_slice(&r.body);
        let doc = slice.and_then(|s| parse_json(s).ok());
        let ok = r.status == 200
            && doc
                .as_ref()
                .is_some_and(|d| !beats_bound(&plan.specs[r.spec], d))
            && served.as_ref().is_some_and(|s| match r.kind {
                Kind::Leader => !s.memo && !s.coalesced && s.executed > 0,
                Kind::Follower => {
                    s.coalesced && s.executed == 0 && leader_slices.get(&r.spec) == slice.as_ref()
                }
                Kind::Reask => {
                    !s.memo
                        && s.executed == 0
                        && s.cache_hits > 0
                        && doc.as_ref().map(|d| without_costs(d).to_json())
                            == originals.get(&r.spec).cloned()
                }
            });
        if !ok {
            failed += 1;
        }
    }
    (run.records.len() as u64, failed)
}
