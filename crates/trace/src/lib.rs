//! `nd-trace` — the read side of nd-obs tracing: span-JSONL analytics.
//!
//! nd-obs writes one JSON line per closed span (`ND_TRACE=path` or the
//! CLIs' `--trace-out`). This crate parses those lines back into
//! per-thread span trees ([`build_forest`]) and answers the questions
//! the write side cannot: is the trace well formed ([`check_nesting`],
//! [`job_cover`] — the `nd-trace check` CI gate), where did the
//! wall-clock go ([`critical_path`]), what does the whole run look like
//! as a flamegraph ([`folded_stacks`]) or in a trace viewer
//! ([`chrome_trace`]), and did anything regress between two runs
//! ([`diff`] — the `nd-trace diff --fail-on-regress` CI gate).
//!
//! Parsing is tolerant of additions: unknown record types and unknown
//! span fields are skipped, so newer traces still load. Tree building
//! uses interval containment (the recorded `depth` only orders spans
//! that start together), so a trace filtered to one request id still
//! forms valid trees even though the surviving spans' depths are
//! sparse. On a whole trace the recorded depths must match the rebuilt
//! trees exactly, which is what [`check_nesting`] verifies.
//!
//! Self-time — the quantity flamegraphs and the critical path report —
//! is a span's duration minus the duration of its direct children
//! (clamped at zero when children overlap the parent edge by a few
//! nanoseconds).

#![warn(missing_docs)]

use nd_obs::value::{parse_json, Value};
use std::collections::BTreeMap;
use std::fmt;

/// An error from trace parsing or analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// One span line from an nd-obs trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name (`sweep.job`, `serve.request`, …).
    pub name: String,
    /// Per-process thread ordinal the span ran on.
    pub tid: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Open spans on this thread when this one started. Trees are
    /// rebuilt from intervals; [`check_nesting`] compares the two.
    pub depth: u64,
    /// The trace context (request id) stamped on the span, if any.
    pub ctx: Option<String>,
    /// The span's `fields` object, if any (kept for chrome export).
    pub fields: Option<Value>,
}

impl SpanRec {
    /// Exclusive end timestamp.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

fn get_u64(t: &BTreeMap<String, Value>, key: &str) -> Option<u64> {
    t.get(key)?.as_i64().and_then(|v| u64::try_from(v).ok())
}

/// Parse span JSONL text into records. Lines whose record type `t` is
/// not `"span"` are skipped (future record types); blank lines are
/// ignored; malformed JSON or a span missing a required key (`name`,
/// `tid`, `start_ns`, `dur_ns`, `depth`) is an error naming the line
/// number.
pub fn parse_trace(text: &str) -> Result<Vec<SpanRec>, TraceError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| TraceError(format!("line {}: {}", lineno + 1, e)))?;
        let t = v
            .as_table()
            .ok_or_else(|| TraceError(format!("line {}: not a JSON object", lineno + 1)))?;
        match t.get("t").and_then(Value::as_str) {
            Some("span") => {}
            _ => continue,
        }
        let missing = |key: &str| TraceError(format!("line {}: span missing {key:?}", lineno + 1));
        out.push(SpanRec {
            name: t
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("name"))?
                .to_string(),
            tid: get_u64(t, "tid").ok_or_else(|| missing("tid"))?,
            start_ns: get_u64(t, "start_ns").ok_or_else(|| missing("start_ns"))?,
            dur_ns: get_u64(t, "dur_ns").ok_or_else(|| missing("dur_ns"))?,
            depth: get_u64(t, "depth").ok_or_else(|| missing("depth"))?,
            ctx: t.get("ctx").and_then(Value::as_str).map(str::to_string),
            fields: t.get("fields").cloned(),
        });
    }
    Ok(out)
}

/// A span in its reconstructed tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// The parsed span.
    pub span: SpanRec,
    /// Indices (into [`Forest::nodes`]) of direct children, in start
    /// order.
    pub children: Vec<usize>,
    /// Duration not covered by direct children.
    pub self_ns: u64,
}

/// All spans of a trace as per-thread trees on one shared timeline.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    /// Every span, tree edges in [`Node::children`].
    pub nodes: Vec<Node>,
    /// Indices of top-level spans (no enclosing span on their thread).
    pub roots: Vec<usize>,
    /// Trace wall-clock: latest end minus earliest start over all
    /// spans. 0 for an empty trace.
    pub wall_ns: u64,
}

/// Rebuild span trees from flat records.
///
/// Spans are grouped by `tid` and nested by interval containment: a
/// span is a child of the innermost earlier span on its thread whose
/// `[start, end]` interval contains it. The recorded `depth` only
/// breaks start-time ties, so subsets (e.g. one request id) still
/// build correctly. Spans with equal start and depth are siblings, and
/// the one that ran first can only be the shorter (a zero-length span
/// that closed as the next one opened), so those ties go shortest first.
pub fn build_forest(spans: Vec<SpanRec>) -> Forest {
    let mut forest = Forest::default();
    if spans.is_empty() {
        return forest;
    }
    let min_start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let max_end = spans.iter().map(SpanRec::end_ns).max().unwrap_or(0);
    forest.wall_ns = max_end.saturating_sub(min_start);

    let mut by_tid: BTreeMap<u64, Vec<SpanRec>> = BTreeMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    for (_tid, mut group) in by_tid {
        group.sort_by_key(|s| (s.start_ns, s.depth, s.dur_ns));
        let mut stack: Vec<usize> = Vec::new();
        for span in group {
            // Unwind to the innermost open span that contains this one.
            while let Some(&top) = stack.last() {
                let t = &forest.nodes[top].span;
                if span.start_ns >= t.end_ns() || span.end_ns() > t.end_ns() {
                    stack.pop();
                } else {
                    break;
                }
            }
            let idx = forest.nodes.len();
            forest.nodes.push(Node {
                span,
                children: Vec::new(),
                self_ns: 0,
            });
            match stack.last() {
                Some(&parent) => forest.nodes[parent].children.push(idx),
                None => forest.roots.push(idx),
            }
            stack.push(idx);
        }
    }
    // Self-time = duration minus direct children.
    for i in 0..forest.nodes.len() {
        let child_ns: u64 = forest.nodes[i]
            .children
            .iter()
            .map(|&c| forest.nodes[c].span.dur_ns)
            .sum();
        forest.nodes[i].self_ns = forest.nodes[i].span.dur_ns.saturating_sub(child_ns);
    }
    forest
}

/// Keep only spans stamped with trace context `ctx`.
pub fn filter_ctx(spans: Vec<SpanRec>, ctx: &str) -> Vec<SpanRec> {
    spans
        .into_iter()
        .filter(|s| s.ctx.as_deref() == Some(ctx))
        .collect()
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

/// Check that every span's recorded `depth` equals its depth in the
/// rebuilt tree. This catches both a wrong depth and a child escaping
/// its parent's interval ([`build_forest`] makes such a child a sibling
/// or a root, so its tree depth is smaller). A trace with no spans is
/// rejected too.
pub fn check_nesting(forest: &Forest) -> Result<(), TraceError> {
    if forest.nodes.is_empty() {
        return Err(TraceError("trace contains no span records".into()));
    }
    let mut todo: Vec<(usize, u64)> = forest.roots.iter().rev().map(|&r| (r, 0)).collect();
    while let Some((i, depth)) = todo.pop() {
        let s = &forest.nodes[i].span;
        if s.depth != depth {
            return Err(TraceError(format!(
                "tid {}: span `{}` at {} ns has depth {} but depth {depth} in the rebuilt tree \
                 (a wrong depth, or a span escaping its parent)",
                s.tid, s.name, s.start_ns, s.depth
            )));
        }
        todo.extend(
            forest.nodes[i]
                .children
                .iter()
                .rev()
                .map(|&c| (c, depth + 1)),
        );
    }
    Ok(())
}

/// Job cover: Σ total(`sweep.job`) / Σ total(`sweep.run`), the share of
/// sweep wall-clock spent inside per-job spans. `None` when the trace
/// has no `sweep.run` time.
pub fn job_cover(by_name: &BTreeMap<String, NameStats>) -> Option<f64> {
    let total = |name: &str| by_name.get(name).map_or(0, |s| s.total_ns);
    let run = total("sweep.run");
    (run > 0).then(|| total("sweep.job") as f64 / run as f64)
}

// ---------------------------------------------------------------------------
// critical path
// ---------------------------------------------------------------------------

/// One step down the critical path.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Span duration.
    pub dur_ns: u64,
    /// Span self-time (duration minus direct children).
    pub self_ns: u64,
    /// Nesting level along the path (0 = the root step).
    pub level: usize,
}

/// Aggregated per-name totals (used by the critical-path table and
/// [`diff`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStats {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self-time.
    pub self_ns: u64,
}

/// The critical-path report over one trace.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Trace wall-clock (latest end minus earliest start).
    pub wall_ns: u64,
    /// Wall-clock covered by top-level spans of the dominant thread —
    /// the thread whose roots cover the most time.
    pub attributed_ns: u64,
    /// `attributed_ns / wall_ns` (0 when the trace is empty).
    pub attributed_frac: f64,
    /// The dominating chain: from the longest root, repeatedly into the
    /// longest child.
    pub steps: Vec<PathStep>,
    /// Per-name self-time totals, descending.
    pub self_by_name: Vec<(String, NameStats)>,
}

/// Sum span durations and self-times per span name.
pub fn aggregate_by_name(forest: &Forest) -> BTreeMap<String, NameStats> {
    let mut map: BTreeMap<String, NameStats> = BTreeMap::new();
    for n in &forest.nodes {
        let e = map.entry(n.span.name.clone()).or_default();
        e.count += 1;
        e.total_ns += n.span.dur_ns;
        e.self_ns += n.self_ns;
    }
    map
}

/// Attribute the trace's wall-clock: find the dominant thread, walk the
/// dominating span chain, and rank span names by self-time.
pub fn critical_path(forest: &Forest) -> CriticalPath {
    // Dominant thread = the tid whose root spans cover the most time.
    let mut root_cover: BTreeMap<u64, u64> = BTreeMap::new();
    for &r in &forest.roots {
        let s = &forest.nodes[r].span;
        *root_cover.entry(s.tid).or_default() += s.dur_ns;
    }
    let attributed_ns = root_cover.values().copied().max().unwrap_or(0);
    let dominant_tid = root_cover
        .iter()
        .max_by_key(|(_, &v)| v)
        .map(|(&k, _)| k)
        .unwrap_or(0);

    // Chain: longest root on the dominant thread, then longest child.
    let mut steps = Vec::new();
    let mut cur = forest
        .roots
        .iter()
        .copied()
        .filter(|&r| forest.nodes[r].span.tid == dominant_tid)
        .max_by_key(|&r| forest.nodes[r].span.dur_ns);
    let mut level = 0;
    while let Some(i) = cur {
        let n = &forest.nodes[i];
        steps.push(PathStep {
            name: n.span.name.clone(),
            dur_ns: n.span.dur_ns,
            self_ns: n.self_ns,
            level,
        });
        level += 1;
        cur = n
            .children
            .iter()
            .copied()
            .max_by_key(|&c| forest.nodes[c].span.dur_ns);
    }

    let mut self_by_name: Vec<(String, NameStats)> =
        aggregate_by_name(forest).into_iter().collect();
    self_by_name.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));

    CriticalPath {
        wall_ns: forest.wall_ns,
        attributed_ns,
        attributed_frac: if forest.wall_ns == 0 {
            0.0
        } else {
            attributed_ns as f64 / forest.wall_ns as f64
        },
        steps,
        self_by_name,
    }
}

// ---------------------------------------------------------------------------
// flame / chrome export
// ---------------------------------------------------------------------------

/// Folded-stack lines (`root;child;leaf self_ns`) for flamegraph tools.
///
/// One line per distinct stack, the count being the stack's summed
/// self-time in nanoseconds; lines come out sorted so the output is
/// deterministic. Feed directly to `flamegraph.pl` or `inferno`.
pub fn folded_stacks(forest: &Forest) -> String {
    let mut acc: BTreeMap<String, u64> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    fn walk<'a>(
        forest: &'a Forest,
        idx: usize,
        stack: &mut Vec<&'a str>,
        acc: &mut BTreeMap<String, u64>,
    ) {
        let n = &forest.nodes[idx];
        stack.push(&n.span.name);
        if n.self_ns > 0 {
            *acc.entry(stack.join(";")).or_default() += n.self_ns;
        }
        for &c in &n.children {
            walk(forest, c, stack, acc);
        }
        stack.pop();
    }
    for &r in &forest.roots {
        walk(forest, r, &mut stack, &mut acc);
    }
    let mut out = String::new();
    for (path, ns) in acc {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Chrome trace-event JSON (`{"traceEvents": [...]}`) loadable in
/// `chrome://tracing` and Perfetto. Spans become complete (`"ph": "X"`)
/// events with microsecond timestamps; the trace context id and span
/// fields ride in `args`.
pub fn chrome_trace(spans: &[SpanRec]) -> String {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut ev = BTreeMap::new();
            ev.insert("name".to_string(), Value::Str(s.name.clone()));
            ev.insert("cat".to_string(), Value::Str("nd".to_string()));
            ev.insert("ph".to_string(), Value::Str("X".to_string()));
            ev.insert("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3));
            ev.insert("dur".to_string(), Value::Float(s.dur_ns as f64 / 1e3));
            ev.insert("pid".to_string(), Value::Int(0));
            ev.insert("tid".to_string(), Value::Int(s.tid as i64));
            let mut args = match &s.fields {
                Some(Value::Table(t)) => t.clone(),
                _ => BTreeMap::new(),
            };
            if let Some(ctx) = &s.ctx {
                args.insert("ctx".to_string(), Value::Str(ctx.clone()));
            }
            if !args.is_empty() {
                ev.insert("args".to_string(), Value::Table(args));
            }
            Value::Table(ev)
        })
        .collect();
    let mut top = BTreeMap::new();
    top.insert("traceEvents".to_string(), Value::Array(events));
    Value::Table(top).to_json()
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Per-name before/after comparison produced by [`diff`].
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Span name.
    pub name: String,
    /// Stats in trace A (zeroed when the name is new in B).
    pub a: NameStats,
    /// Stats in trace B (zeroed when the name disappeared).
    pub b: NameStats,
    /// `(b.total - a.total) / a.total * 100`; +inf for new names.
    pub total_pct: f64,
    /// Whether this row trips the regression gate.
    pub regressed: bool,
}

/// The report of [`diff`].
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Wall-clock of A and B.
    pub wall_a_ns: u64,
    /// Wall-clock of trace B.
    pub wall_b_ns: u64,
    /// Whether the overall wall-clock regressed past the threshold.
    pub wall_regressed: bool,
    /// One row per span name (union of both traces), sorted by B total
    /// descending.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Whether any gate (wall-clock or per-name) tripped.
    pub fn regressed(&self) -> bool {
        self.wall_regressed || self.rows.iter().any(|r| r.regressed)
    }
}

/// Compare two traces per span name and against an overall wall-clock
/// gate.
///
/// A name regresses when its total time grows by more than
/// `fail_pct` percent **and** it is significant — its total in either
/// trace is at least `min_share` of that trace's wall-clock. The floor
/// keeps microsecond-scale spans (whose timings are pure noise between
/// otherwise identical runs) from tripping the gate; lower it
/// explicitly to gate on small spans.
pub fn diff(a: &Forest, b: &Forest, fail_pct: f64, min_share: f64) -> DiffReport {
    let (agg_a, agg_b) = (aggregate_by_name(a), aggregate_by_name(b));
    let factor = 1.0 + fail_pct / 100.0;
    let mut names: Vec<&String> = agg_a.keys().chain(agg_b.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<DiffRow> = names
        .into_iter()
        .map(|name| {
            let sa = agg_a.get(name).copied().unwrap_or_default();
            let sb = agg_b.get(name).copied().unwrap_or_default();
            let total_pct = if sa.total_ns == 0 {
                if sb.total_ns == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (sb.total_ns as f64 - sa.total_ns as f64) / sa.total_ns as f64 * 100.0
            };
            let significant = sa.total_ns as f64 >= min_share * a.wall_ns as f64
                || sb.total_ns as f64 >= min_share * b.wall_ns as f64;
            let grew = sb.total_ns as f64 > sa.total_ns as f64 * factor;
            DiffRow {
                name: name.clone(),
                a: sa,
                b: sb,
                total_pct,
                regressed: significant && grew,
            }
        })
        .collect();
    rows.sort_by(|x, y| y.b.total_ns.cmp(&x.b.total_ns).then(x.name.cmp(&y.name)));
    DiffReport {
        wall_a_ns: a.wall_ns,
        wall_b_ns: b.wall_ns,
        wall_regressed: b.wall_ns as f64 > a.wall_ns as f64 * factor,
        rows,
    }
}

/// Format nanoseconds human-readably (µs/ms/s picked by magnitude).
pub fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns_f / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns_f / 1e6)
    } else {
        format!("{:.3} s", ns_f / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(name: &str, tid: u64, start: u64, dur: u64, depth: u64, ctx: Option<&str>) -> String {
        let ctx = ctx
            .map(|c| format!(", \"ctx\": \"{c}\""))
            .unwrap_or_default();
        format!(
            "{{\"t\": \"span\", \"name\": \"{name}\", \"tid\": {tid}, \"start_ns\": {start}, \"dur_ns\": {dur}, \"depth\": {depth}{ctx}}}"
        )
    }

    fn sample_trace() -> String {
        // tid 0: root [0, 1000) with children a [100, 400) and b [500, 900);
        // a has grandchild g [150, 250). tid 1: worker root [200, 800).
        [
            line("g", 0, 150, 100, 2, None),
            line("a", 0, 100, 300, 1, Some("req-1")),
            line("b", 0, 500, 400, 1, None),
            line("root", 0, 0, 1000, 0, None),
            line("worker", 1, 200, 600, 0, Some("req-1")),
        ]
        .join("\n")
    }

    #[test]
    fn parse_skips_unknown_types_and_errors_on_garbage() {
        let text = format!(
            "{}\n{{\"t\": \"future\", \"x\": 1}}\n\n{}",
            line("a", 0, 0, 10, 0, None),
            line("b", 0, 20, 10, 0, None)
        );
        let spans = parse_trace(&text).unwrap();
        assert_eq!(spans.len(), 2);
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{\"t\": \"span\"}")
            .unwrap_err()
            .0
            .contains("name"));
    }

    /// Parse, build and check a trace, as `nd-trace check` does.
    fn check(text: &str) -> Result<Forest, TraceError> {
        let forest = build_forest(parse_trace(text)?);
        check_nesting(&forest)?;
        Ok(forest)
    }

    #[test]
    fn check_accepts_a_well_nested_trace() {
        let trace = [
            line("sweep.expand", 0, 10, 5, 1, None),
            line("sweep.job", 0, 20, 30, 1, None),
            line("sweep.job", 0, 55, 40, 1, None),
            line("sweep.run", 0, 0, 100, 0, None),
        ]
        .join("\n");
        let forest = check(&trace).unwrap();
        assert_eq!(forest.nodes.len(), 4);
        assert_eq!(forest.roots.len(), 1);
        let by_name = aggregate_by_name(&forest);
        assert_eq!(by_name["sweep.job"].count, 2);
        assert_eq!(job_cover(&by_name), Some(0.7));
    }

    #[test]
    fn check_rejects_wrong_depth() {
        let trace = [line("a", 0, 0, 100, 0, None), line("b", 0, 10, 20, 2, None)].join("\n");
        let err = check(&trace).unwrap_err().0;
        assert!(err.contains("depth 2 but depth 1"), "{err}");
    }

    #[test]
    fn check_rejects_child_escaping_parent() {
        let trace = [line("a", 0, 0, 100, 0, None), line("b", 0, 90, 50, 1, None)].join("\n");
        let err = check(&trace).unwrap_err().0;
        assert!(err.contains("span `b`") && err.contains("depth 0"), "{err}");
    }

    #[test]
    fn check_rejects_garbage_missing_fields_and_empty() {
        assert!(check("not json\n").is_err());
        assert!(check("{\"t\": \"span\"}\n").is_err());
        let no_depth =
            "{\"t\": \"span\", \"name\": \"a\", \"tid\": 0, \"start_ns\": 0, \"dur_ns\": 1}";
        assert!(check(no_depth).unwrap_err().0.contains("depth"));
        assert!(check("").unwrap_err().0.contains("no span records"));
    }

    #[test]
    fn check_nests_threads_independently() {
        // identical intervals on different threads are unrelated
        let trace = [
            line("a", 0, 0, 100, 0, None),
            line("a", 1, 0, 100, 0, None),
            line("b", 1, 10, 20, 1, None),
        ]
        .join("\n");
        let forest = check(&trace).unwrap();
        assert_eq!(forest.roots.len(), 2);
        assert_eq!(
            job_cover(&aggregate_by_name(&forest)),
            None,
            "no sweep.run span"
        );
    }

    #[test]
    fn zero_length_span_tied_with_a_sibling_nests_under_the_parent() {
        // A closed at t=10 as its sibling B opened; both sit in P.
        let trace = [
            line("A", 0, 10, 0, 1, None),
            line("B", 0, 10, 40, 1, None),
            line("P", 0, 0, 100, 0, None),
        ]
        .join("\n");
        let forest = check(&trace).unwrap();
        let p = forest.nodes.iter().find(|n| n.span.name == "P").unwrap();
        let children: Vec<&str> = p
            .children
            .iter()
            .map(|&c| forest.nodes[c].span.name.as_str())
            .collect();
        assert_eq!(children, ["A", "B"]);
    }

    #[test]
    fn forest_nests_by_containment_and_computes_self() {
        let f = build_forest(parse_trace(&sample_trace()).unwrap());
        assert_eq!(f.wall_ns, 1000);
        assert_eq!(f.roots.len(), 2); // root (tid 0) + worker (tid 1)
        let root = f
            .nodes
            .iter()
            .find(|n| n.span.name == "root")
            .expect("root node");
        assert_eq!(root.children.len(), 2);
        // self = 1000 - (300 + 400)
        assert_eq!(root.self_ns, 300);
        let a = f.nodes.iter().find(|n| n.span.name == "a").unwrap();
        assert_eq!(a.children.len(), 1);
        assert_eq!(a.self_ns, 200); // 300 - 100
    }

    #[test]
    fn critical_path_attributes_and_walks_longest_chain() {
        let f = build_forest(parse_trace(&sample_trace()).unwrap());
        let cp = critical_path(&f);
        assert_eq!(cp.wall_ns, 1000);
        // tid 0's root covers 1000 > tid 1's 600.
        assert_eq!(cp.attributed_ns, 1000);
        assert!((cp.attributed_frac - 1.0).abs() < 1e-9);
        let names: Vec<&str> = cp.steps.iter().map(|s| s.name.as_str()).collect();
        // Longest child of root is b (400 > 300).
        assert_eq!(names, ["root", "b"]);
        // Self-time ranking: b=400, root=300, worker=600 → worker first.
        assert_eq!(cp.self_by_name[0].0, "worker");
    }

    #[test]
    fn folded_stacks_sum_self_times() {
        let f = build_forest(parse_trace(&sample_trace()).unwrap());
        let folded = folded_stacks(&f);
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"root 300"));
        assert!(lines.contains(&"root;a 200"));
        assert!(lines.contains(&"root;a;g 100"));
        assert!(lines.contains(&"root;b 400"));
        assert!(lines.contains(&"worker 600"));
        // Folded totals add up to the total self time (= total span time
        // of roots here).
        let sum: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, 1600);
    }

    #[test]
    fn chrome_trace_parses_back_as_json() {
        let spans = parse_trace(&sample_trace()).unwrap();
        let json = chrome_trace(&spans);
        let v = parse_json(&json).unwrap();
        let events = v.as_table().unwrap()["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 5);
        let first = events[0].as_table().unwrap();
        assert_eq!(first["ph"].as_str(), Some("X"));
        assert!(first.contains_key("ts") && first.contains_key("dur"));
    }

    #[test]
    fn ctx_filter_keeps_request_spans() {
        let spans = filter_ctx(parse_trace(&sample_trace()).unwrap(), "req-1");
        assert_eq!(spans.len(), 2);
        let f = build_forest(spans);
        assert_eq!(f.roots.len(), 2); // a (tid 0) and worker (tid 1)
    }

    #[test]
    fn diff_gates_on_significant_growth_only() {
        let base = build_forest(parse_trace(&sample_trace()).unwrap());
        // 2× slowdown: scale every timestamp and duration.
        let doubled: Vec<SpanRec> = parse_trace(&sample_trace())
            .unwrap()
            .into_iter()
            .map(|mut s| {
                s.start_ns *= 2;
                s.dur_ns *= 2;
                s
            })
            .collect();
        let slow = build_forest(doubled);

        // Identical runs: nothing regresses.
        let same = diff(&base, &base, 50.0, 0.01);
        assert!(!same.regressed(), "identical traces must pass the gate");

        // Doubled run: wall and the big names regress.
        let worse = diff(&base, &slow, 50.0, 0.01);
        assert!(worse.wall_regressed);
        assert!(worse.rows.iter().any(|r| r.name == "root" && r.regressed));

        // Insignificant spans never regress: tiny span triples but is
        // far below 1% of wall.
        let mut a_spans = parse_trace(&sample_trace()).unwrap();
        a_spans.push(SpanRec {
            name: "tiny".into(),
            tid: 0,
            start_ns: 10,
            dur_ns: 1_000_000, // 1 ms of a 10 s wall
            depth: 5,
            ctx: None,
            fields: None,
        });
        let mut b_spans = a_spans.clone();
        b_spans.last_mut().unwrap().dur_ns = 3_000_000;
        // Stretch wall so `tiny` is insignificant in both.
        for spans in [&mut a_spans, &mut b_spans] {
            spans.push(SpanRec {
                name: "big".into(),
                tid: 7,
                start_ns: 0,
                dur_ns: 10_000_000_000,
                depth: 0,
                ctx: None,
                fields: None,
            });
        }
        let rep = diff(&build_forest(a_spans), &build_forest(b_spans), 50.0, 0.01);
        let tiny = rep.rows.iter().find(|r| r.name == "tiny").unwrap();
        assert!(tiny.total_pct > 100.0);
        assert!(!tiny.regressed, "sub-threshold span must not gate");
        assert!(!rep.regressed());
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(15_000), "15.0 µs");
        assert_eq!(fmt_ns(12_340_000), "12.34 ms");
        assert_eq!(fmt_ns(12_000_000_000), "12.000 s");
    }
}
