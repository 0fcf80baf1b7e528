//! The planning service: an in-memory response memo over the
//! content-addressed result cache, request coalescing, and the HTTP
//! router.
//!
//! Three layers answer a query, fastest first:
//!
//! 1. **Memo** — completed front documents, keyed by the request spec's
//!    content hash. Warm queries never touch disk; this is what makes
//!    sub-millisecond loopback p99 possible.
//! 2. **Result cache** — `nd-sweep`'s on-disk [`nd_sweep::ResultCache`],
//!    shared with every CLI sweep and search. A memo miss re-runs the
//!    search, but each candidate evaluation is served from here when
//!    present ("re-evaluate on miss"); corrupt entries abort with a 500
//!    ([`nd_opt::OptOptions::strict_cache`]) rather than being silently
//!    recomputed.
//! 3. **Worker pool** — actual cache-miss evaluations run on the same
//!    `pool::run_parallel` machinery the CLIs use.
//!
//! Identical concurrent requests *coalesce*: the first becomes the
//! leader and computes, the rest block on the leader's slot and reuse its
//! result — a thundering herd of N identical cache-miss requests costs
//! exactly one evaluation (`serve.computed` stays 1, `serve.coalesced`
//! counts the N−1 followers).

use crate::api::{parse_request, ApiError, Endpoint, Request, API_VERSION};
use crate::http;
use nd_opt::{run_opt, OptOptions, OptSpec};
use nd_sweep::value::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A completed computation: the `nd-export/v1` front document plus what
/// producing it cost.
pub struct Computed {
    /// The front document (`nd_opt::to_value`, the tree `nd_opt::to_json`
    /// renders).
    pub doc: Value,
    /// Fresh backend evaluations the search executed.
    pub executed: usize,
    /// Evaluations served from the on-disk result cache.
    pub cache_hits: usize,
    /// Wall-clock of the search, microseconds.
    pub wall_us: u64,
}

/// How a particular request got its answer (the response `served` block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// Answered from the in-memory memo — no search, no disk.
    pub memo: bool,
    /// Coalesced onto another request's in-flight computation.
    pub coalesced: bool,
}

enum SlotState {
    Pending,
    Ready(Result<Arc<Computed>, ApiError>),
}

/// One memo entry: leader computes, followers wait on the condvar.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

struct Memo {
    entries: HashMap<String, Arc<Slot>>,
    /// Insertion order, for capacity eviction (oldest first).
    order: VecDeque<String>,
}

/// The query engine behind all three endpoints.
pub struct Planner {
    opts: OptOptions,
    memo: Mutex<Memo>,
    capacity: usize,
}

impl Planner {
    /// Build a planner. `opts` should have
    /// [`strict_cache`](OptOptions::strict_cache) set (the constructor
    /// forces it: a server must surface corrupt state, not rewrite it).
    /// `capacity` bounds the memo entry count; oldest entries fall out
    /// first — their per-evaluation results stay in the on-disk cache, so
    /// recomputation after eviction is cheap.
    pub fn new(mut opts: OptOptions, capacity: usize) -> Planner {
        opts.strict_cache = true;
        Planner {
            opts,
            memo: Mutex::new(Memo {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Answer a parsed request, returning the response body.
    pub fn handle(&self, req: &Request) -> Result<String, ApiError> {
        let (computed, served) = self.front_document(&req.spec);
        let computed = computed?;
        if let Some(err) = empty_front_error(&computed.doc) {
            return Err(err);
        }
        let result = match req.endpoint {
            Endpoint::Front => computed.doc.clone(),
            Endpoint::Best => best_result(&computed.doc, req.budget.expect("parse enforces"))?,
            Endpoint::Gap => gap_result(&computed.doc),
        };
        Ok(crate::api::success_body(
            result,
            served_block(&computed, served),
        ))
    }

    /// The memoized/coalesced front computation for one spec.
    pub fn front_document(&self, spec: &OptSpec) -> (Result<Arc<Computed>, ApiError>, Served) {
        let hash = spec.content_hash();
        let (slot, leader) = {
            let mut memo = self.memo.lock().unwrap();
            match memo.entries.get(&hash) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Pending),
                        ready: Condvar::new(),
                    });
                    memo.order.push_back(hash.clone());
                    memo.entries.insert(hash.clone(), Arc::clone(&slot));
                    while memo.entries.len() > self.capacity {
                        if let Some(old) = memo.order.pop_front() {
                            memo.entries.remove(&old);
                        }
                    }
                    (slot, true)
                }
            }
        };

        if leader {
            nd_obs::metrics::inc("serve.computed");
            let result = self.compute(spec);
            *slot.state.lock().unwrap() = SlotState::Ready(result.clone());
            slot.ready.notify_all();
            if result.is_err() {
                // failures are answered to everyone already waiting but
                // not memoized: a later retry may find the cache healed
                let mut memo = self.memo.lock().unwrap();
                memo.entries.remove(&hash);
                memo.order.retain(|h| h != &hash);
            }
            (
                result,
                Served {
                    memo: false,
                    coalesced: false,
                },
            )
        } else {
            let mut state = slot.state.lock().unwrap();
            let mut waited = false;
            while matches!(*state, SlotState::Pending) {
                waited = true;
                state = slot.ready.wait(state).unwrap();
            }
            let SlotState::Ready(result) = &*state else {
                unreachable!("the wait loop only exits on Ready")
            };
            nd_obs::metrics::inc(if waited {
                "serve.coalesced"
            } else {
                "serve.memo_hits"
            });
            (
                result.clone(),
                Served {
                    memo: !waited,
                    coalesced: waited,
                },
            )
        }
    }

    fn compute(&self, spec: &OptSpec) -> Result<Arc<Computed>, ApiError> {
        let start = Instant::now();
        let outcome = run_opt(spec, &self.opts).map_err(|e| ApiError::from_opt_error(&e.0))?;
        Ok(Arc::new(Computed {
            doc: nd_opt::to_value(&outcome),
            executed: outcome.executed,
            cache_hits: outcome.cache_hits,
            wall_us: start.elapsed().as_micros() as u64,
        }))
    }
}

/// Build the response `served` block. Cost fields describe work done on
/// behalf of *this* request: memo hits and coalesced followers report
/// zero executions (the leader's response carries the real cost).
fn served_block(computed: &Computed, served: Served) -> Value {
    let fresh = !served.memo && !served.coalesced;
    Value::Table(BTreeMap::from([
        ("memo".to_string(), Value::Bool(served.memo)),
        ("coalesced".to_string(), Value::Bool(served.coalesced)),
        (
            "executed".to_string(),
            Value::Int(if fresh { computed.executed as i64 } else { 0 }),
        ),
        (
            "cache_hits".to_string(),
            Value::Int(if fresh { computed.cache_hits as i64 } else { 0 }),
        ),
        (
            "wall_us".to_string(),
            Value::Int(if fresh { computed.wall_us as i64 } else { 0 }),
        ),
    ]))
}

fn fronts_of(doc: &Value) -> &[Value] {
    doc.as_table()
        .and_then(|t| t.get("fronts"))
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

/// The `empty-front` check, mirroring the `nd-opt` CLI diagnostic: when
/// any protocol's front is empty, aggregate its per-reason censoring
/// counts into the error payload so the client learns why.
fn empty_front_error(doc: &Value) -> Option<ApiError> {
    let mut empty: Vec<String> = Vec::new();
    let mut censored: BTreeMap<String, i64> = BTreeMap::new();
    for front in fronts_of(doc) {
        let t = front.as_table()?;
        if t.get("front")?.as_array()?.is_empty() {
            empty.push(t.get("protocol")?.as_str()?.to_string());
            if let Some(reasons) = t.get("censored").and_then(Value::as_table) {
                for (reason, count) in reasons {
                    *censored.entry(reason.clone()).or_insert(0) += count.as_i64().unwrap_or(0);
                }
            }
        }
    }
    if empty.is_empty() {
        return None;
    }
    Some(ApiError::EmptyFront {
        message: format!(
            "empty front for {} (every candidate censored — see `censored` for reasons)",
            empty.join(", ")
        ),
        censored,
    })
}

/// `/v1/best`: per protocol, the most capable front point within the
/// duty-cycle budget (fronts are sorted by duty cycle, latency
/// decreasing, so that is the *last* affordable point).
fn best_result(doc: &Value, budget: f64) -> Result<Value, ApiError> {
    let mut choices: Vec<Value> = Vec::new();
    let mut found = false;
    for front in fronts_of(doc) {
        let Some(t) = front.as_table() else { continue };
        let protocol = t.get("protocol").and_then(Value::as_str).unwrap_or("");
        let points = t.get("front").and_then(Value::as_array).unwrap_or(&[]);
        let best = points.iter().rev().find(|p| {
            p.as_table()
                .and_then(|pt| pt.get("duty_cycle"))
                .and_then(Value::as_f64)
                .is_some_and(|dc| dc <= budget)
        });
        let mut entry =
            BTreeMap::from([("protocol".to_string(), Value::Str(protocol.to_string()))]);
        match best {
            Some(point) => {
                found = true;
                entry.insert("point".to_string(), point.clone());
            }
            None => {
                entry.insert("point".to_string(), Value::Null);
            }
        }
        choices.push(Value::Table(entry));
    }
    if !found {
        return Err(ApiError::Infeasible(format!(
            "no configuration fits duty-cycle budget {budget}"
        )));
    }
    Ok(Value::Table(BTreeMap::from([
        ("budget".to_string(), Value::Float(budget)),
        ("choices".to_string(), Value::Array(choices)),
    ])))
}

/// `/v1/gap`: per-protocol gap-to-bound summary over the front points.
fn gap_result(doc: &Value) -> Value {
    let fronts: Vec<Value> = fronts_of(doc)
        .iter()
        .filter_map(|front| {
            let t = front.as_table()?;
            let protocol = t.get("protocol")?.as_str()?.to_string();
            let gaps: Vec<f64> = t
                .get("front")?
                .as_array()?
                .iter()
                .filter_map(|p| p.as_table()?.get("gap_frac")?.as_f64())
                .filter(|g| g.is_finite())
                .collect();
            let stat = |v: f64| {
                if gaps.is_empty() {
                    Value::Null
                } else {
                    Value::Float(v)
                }
            };
            let mut entry = BTreeMap::new();
            entry.insert("protocol".to_string(), Value::Str(protocol));
            entry.insert(
                "points".to_string(),
                Value::Int(
                    t.get("front")
                        .and_then(Value::as_array)
                        .unwrap_or(&[])
                        .len() as i64,
                ),
            );
            entry.insert(
                "gap_min".to_string(),
                stat(gaps.iter().copied().fold(f64::INFINITY, f64::min)),
            );
            entry.insert(
                "gap_mean".to_string(),
                stat(gaps.iter().sum::<f64>() / gaps.len().max(1) as f64),
            );
            entry.insert(
                "gap_max".to_string(),
                stat(gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            );
            Some(Value::Table(entry))
        })
        .collect();
    Value::Table(BTreeMap::from([(
        "fronts".to_string(),
        Value::Array(fronts),
    )]))
}

/// Liveness state behind `/healthz`: build identity, uptime, and
/// cache-GC loop gauges. Shared between the router (which reports it)
/// and the daemon's background GC loop (which marks completed passes).
pub struct Health {
    start: Instant,
    /// Completed GC passes.
    cycles: AtomicU64,
    /// Milliseconds from `start` to the last completed pass.
    last_cycle_ms: AtomicU64,
}

impl Health {
    /// Fresh health state.
    pub fn new() -> Arc<Health> {
        Arc::new(Health {
            start: Instant::now(),
            cycles: AtomicU64::new(0),
            last_cycle_ms: AtomicU64::new(0),
        })
    }

    /// Record a completed GC pass (called by the background loop).
    pub fn mark_cycle(&self) {
        self.last_cycle_ms
            .store(self.start.elapsed().as_millis() as u64, Ordering::Relaxed);
        self.cycles.fetch_add(1, Ordering::Relaxed);
    }

    /// The `/healthz` response body.
    fn body(&self) -> String {
        let cycles = self.cycles.load(Ordering::Relaxed);
        let mut t = BTreeMap::from([
            ("api".to_string(), Value::Str(API_VERSION.to_string())),
            ("status".to_string(), Value::Str("ok".to_string())),
            (
                "version".to_string(),
                Value::Str(env!("CARGO_PKG_VERSION").to_string()),
            ),
            (
                "engine".to_string(),
                Value::Str(nd_sweep::ENGINE_VERSION.to_string()),
            ),
            (
                "uptime_s".to_string(),
                Value::Float(self.start.elapsed().as_secs_f64()),
            ),
            (
                "stage_cycles".to_string(),
                Value::Int(cycles.min(i64::MAX as u64) as i64),
            ),
        ]);
        t.insert(
            "last_cycle_age_s".to_string(),
            if cycles == 0 {
                Value::Null
            } else {
                let last_ms = self.last_cycle_ms.load(Ordering::Relaxed);
                let now_ms = self.start.elapsed().as_millis() as u64;
                Value::Float(now_ms.saturating_sub(last_ms) as f64 / 1e3)
            },
        );
        Value::Table(t).to_json_pretty()
    }
}

/// A fresh request id when the client did not send `X-ND-Trace-Id`:
/// 16 hex digits from a SplitMix64 over (monotonic time, pid, sequence).
fn generate_trace_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mix = nd_obs::trace::now_ns()
        ^ ((std::process::id() as u64) << 32)
        ^ SEQ
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    format!("{:016x}", nd_core::seed::splitmix64(mix))
}

/// The HTTP router: maps methods/paths to the planner and the control
/// endpoints, and owns per-request observability: the request's trace
/// id (honored from `X-ND-Trace-Id` or generated), the `serve.request`
/// span and everything under it stamped with that id, request counters,
/// per-endpoint latency histograms, and the access log.
pub struct App {
    planner: Arc<Planner>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    health: Arc<Health>,
    access_log: bool,
}

impl App {
    /// Wire a router to a planner. `addr` is the server's own bound
    /// address (the shutdown handler pokes it to unblock the accept
    /// loop); `shutdown` is shared with [`http::Server::run`]. The
    /// router gets a fresh health state and the access log is off —
    /// see [`App::with_health`] / [`App::with_access_log`].
    pub fn new(planner: Arc<Planner>, shutdown: Arc<AtomicBool>, addr: SocketAddr) -> App {
        App {
            planner,
            shutdown,
            addr,
            health: Health::new(),
            access_log: false,
        }
    }

    /// Report `health` from `/healthz` (share it with the GC loop, which
    /// calls [`Health::mark_cycle`]).
    pub fn with_health(mut self, health: Arc<Health>) -> App {
        self.health = health;
        self
    }

    /// Emit one structured access-log line per request to stderr.
    pub fn with_access_log(mut self, on: bool) -> App {
        self.access_log = on;
        self
    }

    /// Handle one HTTP request.
    pub fn route(&self, req: &http::Request) -> http::Response {
        let start = Instant::now();
        let trace_id: Arc<str> = match &req.trace_id {
            Some(id) => id.as_str().into(),
            None => generate_trace_id().into(),
        };
        // Install the id as this thread's trace context before opening
        // the request span: every span from here down — including pool
        // evaluation spans on worker threads — carries it.
        let _ctx = nd_obs::trace::set_context(Some(Arc::clone(&trace_id)));
        let _span = nd_obs::span!(
            "serve.request",
            method = req.method.as_str(),
            path = req.path.as_str()
        );
        nd_obs::metrics::inc("serve.requests");
        let resp = match self.dispatch(req) {
            Ok(resp) => resp,
            Err(err) => {
                nd_obs::metrics::inc(&format!("serve.errors.{}", err.code()));
                http::Response::json(err.status(), err.to_body())
            }
        };
        let us = start.elapsed().as_micros() as u64;
        nd_obs::metrics::observe("serve.request_us", us);
        if let Some(endpoint) = Endpoint::from_path(&req.path) {
            nd_obs::metrics::observe(&format!("serve.{}_us", endpoint.name()), us);
        }
        if self.access_log {
            eprintln!(
                "{}",
                Value::Table(BTreeMap::from([
                    ("t".to_string(), Value::Str("access".to_string())),
                    ("method".to_string(), Value::Str(req.method.clone())),
                    ("path".to_string(), Value::Str(req.path.clone())),
                    ("status".to_string(), Value::Int(resp.status as i64)),
                    ("us".to_string(), Value::Int(us as i64)),
                    (
                        "trace_id".to_string(),
                        Value::Str(trace_id.as_ref().to_string()),
                    ),
                ]))
                .to_json()
            );
        }
        resp.with_trace_id(trace_id.as_ref())
    }

    fn dispatch(&self, req: &http::Request) -> Result<http::Response, ApiError> {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Ok(http::Response::json(200, self.health.body())),
            ("GET", "/v1/metrics") => match req.query.as_deref() {
                None => Ok(http::Response::json(
                    200,
                    nd_obs::metrics::snapshot().to_json(),
                )),
                Some("format=prometheus") => Ok(http::Response::text(
                    200,
                    nd_obs::metrics::snapshot().to_prometheus(),
                )),
                Some(other) => Err(ApiError::BadRequest(format!(
                    "unknown metrics query `{other}` (supported: format=prometheus)"
                ))),
            },
            ("POST", "/v1/shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                http::wake(self.addr);
                Ok(http::Response::json(200, status_body("shutting-down")))
            }
            ("POST", path) if Endpoint::from_path(path).is_some() => {
                let endpoint = Endpoint::from_path(path).expect("guarded");
                let parsed = parse_request(endpoint, &req.body)?;
                let body = self.planner.handle(&parsed)?;
                Ok(http::Response::json(200, body))
            }
            (_, path)
                if Endpoint::from_path(path).is_some()
                    || matches!(path, "/healthz" | "/v1/metrics" | "/v1/shutdown") =>
            {
                Err(ApiError::MethodNotAllowed(format!(
                    "{} does not accept {}",
                    path, req.method
                )))
            }
            (_, path) => Err(ApiError::NotFound(format!("no such endpoint `{path}`"))),
        }
    }
}

fn status_body(status: &str) -> String {
    Value::Table(BTreeMap::from([
        ("api".to_string(), Value::Str(API_VERSION.to_string())),
        ("status".to_string(), Value::Str(status.to_string())),
    ]))
    .to_json_pretty()
}
