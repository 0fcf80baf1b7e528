//! The N-node discrete-event engine.
//!
//! [`NetSimulator`] is the repository's one discrete-event engine. It
//! simulates a cohort: every node has a presence window (join/leave
//! churn), its own RNG stream, and an arbitrary [`nd_sim::Behavior`]; the
//! shared channel applies the paper's reception model (overlap geometry,
//! half-duplex blanking, ALOHA collisions, fault injection). A pair is
//! simply the N = 2 cohort: two always-on nodes are what the Monte-Carlo
//! harnesses run, and the oracle tests hold such runs to a from-first-
//! principles enumeration of beacon/window hits.
//!
//! Protocols run on node-local timelines (0 = the node's join instant), so
//! the same behaviour describes an early bird and a late joiner; clock
//! drift composes underneath via [`nd_sim::Drifting`].
//!
//! The event core is built for scale: events flow through a queue picked
//! from the node count — the hierarchical [`crate::wheel::TimingWheel`]
//! (O(1) amortized at netsim's dense short-horizon mix) for large
//! cohorts, a binary heap, faster while few events are pending, for small
//! ones; both pop the same order. Per-node state lives in the flat
//! structure-of-arrays [`crate::node`] arena, and cohort completion is a
//! per-cluster countdown (O(1) per reception) instead of an O(N²)
//! matrix scan per event. Topologies that split into disconnected
//! clusters — e.g. per-channel neighborhoods from
//! [`nd_sim::Topology::clusters`] — complete independently: once a
//! cluster has discovered all its ordered pairs (under
//! [`NetSimulator::stop_when_all_discovered`]), its remaining events are
//! discarded without advancing the clock, which keeps a whole-cohort run
//! bit-identical to per-shard runs merged by [`crate::shard`]. Cohorts
//! whose nodes all repeat exactly skip their steady tails whole periods
//! at a time, with identical reports (the `steady` module).

use crate::event::{EventKind, EventQueue};
use crate::metrics::CohortReport;
use crate::node::{NodeArena, NodeSpec};
use crate::steady::{FastForward, Verdict};
use nd_core::interval::{Interval, IntervalSet};
use nd_core::time::Tick;
use nd_obs::Progress;
use nd_sim::{DiscoveryMatrix, Op, PacketCounters, SimConfig, Topology};
use rand::Rng;
use std::collections::VecDeque;

/// One transmission on the shared channel.
struct TxRecord {
    node: usize,
    iv: Interval,
    payload: u64,
    /// The sender left mid-packet: the truncated airtime still interferes,
    /// but the packet is corrupt and never delivered.
    aborted: bool,
}

/// One cluster's scheduled listening windows, tagged with the listener,
/// in nondecreasing start order.
///
/// The order is free: every buffered `Rx` op is processed by its wake at
/// exactly its start instant, so pushes arrive already sorted by start.
/// That makes "who could hear a packet" a binary search + short scan
/// instead of a walk over every cluster member's window list — the
/// receiver-side cost of a `TxEnd` drops from O(cluster size) to
/// O(listeners actually overlapping the packet).
struct Timeline {
    /// `(window, listener id)` in nondecreasing `window.start` order.
    entries: Vec<(Interval, u32)>,
    /// Lazy prune cursor: everything before it is past the influence
    /// horizon of any future packet.
    prune: usize,
    /// Monotone search cursor: queries arrive with nondecreasing packet
    /// starts (`TxEnd`s fire in packet order), so the lower bound only
    /// ever moves forward — amortized O(1) instead of a binary search.
    /// Rewound to `prune` when `max_dur` grows.
    search: usize,
    /// Longest window duration ever pushed — the lower-bound slack: a
    /// window overlapping `t` must start after `t - max_dur`.
    max_dur: Tick,
}

impl Timeline {
    fn new() -> Self {
        Timeline {
            entries: Vec::new(),
            prune: 0,
            search: 0,
            max_dur: Tick::ZERO,
        }
    }

    /// Record a window; starts arrive nondecreasing (each `Rx` op is
    /// processed by its wake at exactly its start instant).
    fn push(&mut self, iv: Interval, node: u32) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.0.start <= iv.start),
            "listen windows must arrive in start order"
        );
        if iv.measure() > self.max_dur {
            // a longer window reaches further back: rewind the cursor
            self.max_dur = iv.measure();
            self.search = self.prune;
        }
        self.entries.push((iv, node));
    }

    /// First index that could overlap a packet starting at `packet_start`,
    /// advancing (and occasionally compacting) the prune cursor first.
    fn candidates_from(&mut self, packet_start: Tick, horizon: Tick) -> usize {
        while self.prune < self.entries.len()
            && self.entries[self.prune].0.start + self.max_dur < horizon
        {
            self.prune += 1;
        }
        if self.prune > 64 && self.prune * 2 >= self.entries.len() {
            self.entries.drain(..self.prune);
            self.search = self.search.saturating_sub(self.prune);
            self.prune = 0;
        }
        self.search = self.search.max(self.prune);
        while self.search < self.entries.len()
            && self.entries[self.search].0.start + self.max_dur <= packet_start
        {
            self.search += 1;
        }
        self.search
    }
}

/// The multi-node discrete-event simulator.
///
/// ```
/// use nd_netsim::{NetSimulator, NodeSpec};
/// use nd_sim::{ScheduleBehavior, SimConfig, Topology};
/// use nd_core::{BeaconSeq, RadioParams, ReceptionWindows, Schedule, Tick};
///
/// // three nodes that both beacon and listen discover each other quickly
/// let sched = Schedule::full(
///     BeaconSeq::uniform(1, Tick::from_micros(300), Tick::from_micros(4), Tick::ZERO).unwrap(),
///     ReceptionWindows::single(Tick::from_micros(50), Tick::from_micros(200), Tick::from_micros(300)).unwrap(),
/// );
/// let mut radio = RadioParams::paper_default();
/// radio.omega = Tick::from_micros(4);
/// let cfg = SimConfig::paper_baseline(Tick::from_millis(20), 7).with_radio(radio);
/// let mut sim = NetSimulator::new(cfg, Topology::full(3));
/// for phase_us in [0u64, 70, 170] {
///     let behavior = ScheduleBehavior::with_phase(sched.clone(), Tick::from_micros(phase_us));
///     sim.add_node(NodeSpec::always_on(Box::new(behavior)));
/// }
/// let report = sim.run();
/// assert!(report.discovery.complete());
/// ```
pub struct NetSimulator {
    cfg: SimConfig,
    topo: Topology,
    nodes: NodeArena,
    /// Retained transmission records; absolute record `idx` lives at
    /// `transmissions[idx - tx_base]`. Records whose influence horizon has
    /// passed are popped off the front (their `TxEnd` is proven fired).
    transmissions: VecDeque<TxRecord>,
    tx_base: usize,
    /// Pending packet ends `(end, seq, absolute record idx)`. Airtime is
    /// one constant ω per run, so ends become due in exactly the order
    /// packets started — a FIFO beside the queue. Each entry carries a
    /// sequence number reserved at start time, so firing an end the
    /// moment its `(end, seq)` precedes the queue's head reproduces the
    /// schedule-it-as-an-event order bit for bit, at FIFO cost instead
    /// of a third of all queue traffic.
    pending_ends: VecDeque<(Tick, u64, usize)>,
    queue: EventQueue,
    discovery: DiscoveryMatrix,
    packets: PacketCounters,
    stop_when_complete: bool,
    /// Normalized cluster label per node (smallest member id), as reported.
    cluster_label: Vec<u32>,
    /// Dense cluster index per node (labels renumbered 0..k in
    /// first-appearance order).
    cluster_of: Vec<u32>,
    /// Ordered pairs not yet discovered, per dense cluster index. A
    /// cluster is complete exactly when this hits zero — the counter
    /// equivalent of `DiscoveryMatrix::complete()` on the cluster.
    remaining: Vec<u64>,
    /// Clusters with `remaining > 0`.
    clusters_active: usize,
    /// Scheduled listening windows per dense cluster index (reception
    /// geometry is queried by time across a neighborhood, not per node).
    timelines: Vec<Timeline>,
    /// Scratch: candidate `(listener, window ∩ packet)` pairs per `TxEnd`.
    cand: Vec<(u32, Interval)>,
    /// Scratch: one refill batch of behaviour ops (reused so steady-state
    /// refills through [`nd_sim::Behavior::next_ops_into`] allocate
    /// nothing).
    op_scratch: Vec<Op>,
    /// Scratch: collider record indices per `TxEnd`.
    colliders: Vec<usize>,
    /// Half-duplex blanking marks (start-overlap model): node `i` is
    /// blanked for the current `TxEnd` iff `blank_stamp[i] == blank_epoch`.
    /// Bumping the epoch per scan clears every mark in O(1), and the
    /// per-receiver test is one load instead of a walk over the blankers.
    blank_stamp: Vec<u32>,
    blank_epoch: u32,
    /// Monotone lower bound (absolute record index) for the collider /
    /// blanker scan: packet starts are nondecreasing across `TxEnd`s, so
    /// records wholly before one packet are wholly before every later one.
    collider_search: usize,
    /// Per-node own-tx logs are only maintained when the general
    /// interval-algebra blanking path needs them (half-duplex under a
    /// non-start overlap model); the start-model hot path derives
    /// blanking from the shared transmission records instead.
    need_own_tx: bool,
    /// Ordered pairs discovered so far (first contacts).
    first_contacts: u64,
    /// Profiling tallies: candidate listen windows and colliders seen per
    /// `TxEnd`, flushed with the event batches.
    txend_candidates: u64,
    txend_colliders: u64,
    /// Skip steady periods when the cohort is eligible (see
    /// [`crate::steady`]); only tests turn it off, to get the full
    /// simulation as a reference.
    fast_forward: bool,
}

impl NetSimulator {
    /// Create a simulator; add nodes with [`NetSimulator::add_node`], then
    /// call [`NetSimulator::run`]. The config's `seed` roots every node's
    /// private RNG stream.
    pub fn new(cfg: SimConfig, topo: Topology) -> Self {
        let n = topo.len();
        let cluster_label = topo.cluster_assignments();
        let mut cluster_of = vec![0u32; n];
        let mut sizes: Vec<u64> = Vec::new();
        let mut index_of = std::collections::HashMap::new();
        for i in 0..n {
            let c = *index_of.entry(cluster_label[i]).or_insert_with(|| {
                sizes.push(0);
                (sizes.len() - 1) as u32
            });
            cluster_of[i] = c;
            sizes[c as usize] += 1;
        }
        let remaining: Vec<u64> = sizes.iter().map(|&k| k * (k - 1)).collect();
        let clusters_active = remaining.iter().filter(|&&r| r > 0).count();
        let need_own_tx =
            cfg.half_duplex && !matches!(cfg.overlap, nd_core::coverage::OverlapModel::Start);
        NetSimulator {
            cfg,
            topo,
            nodes: NodeArena::with_capacity(n),
            transmissions: VecDeque::new(),
            tx_base: 0,
            pending_ends: VecDeque::new(),
            queue: EventQueue::for_cohort(n),
            discovery: DiscoveryMatrix::new(n),
            packets: PacketCounters::default(),
            stop_when_complete: false,
            cluster_label,
            cluster_of,
            timelines: sizes.iter().map(|_| Timeline::new()).collect(),
            remaining,
            clusters_active,
            cand: Vec::new(),
            op_scratch: Vec::new(),
            colliders: Vec::new(),
            blank_stamp: vec![0; n],
            blank_epoch: 0,
            collider_search: 0,
            need_own_tx,
            first_contacts: 0,
            txend_candidates: 0,
            txend_colliders: 0,
            fast_forward: true,
        }
    }

    /// Register the next node (ids are assigned in call order and must
    /// match the topology size by the time `run` is called).
    pub fn add_node(&mut self, spec: NodeSpec) -> usize {
        self.nodes.push(spec, self.cfg.seed)
    }

    /// Stop as soon as every ordered pair has discovered each other.
    /// Disconnected topologies complete cluster by cluster: a finished
    /// cluster's remaining events are dropped, and the run ends when the
    /// last cluster finishes (clusters with undiscoverable pairs run to
    /// the horizon, as before).
    pub fn stop_when_all_discovered(&mut self, yes: bool) {
        self.stop_when_complete = yes;
    }

    /// Run on the timing wheel (`true`) or the binary heap (`false`)
    /// whatever the cohort size: the wheel-vs-heap equivalence suite
    /// replays each cohort on both. Call before [`NetSimulator::run`].
    #[cfg(test)]
    pub(crate) fn force_queue(&mut self, wheel: bool) {
        self.queue = EventQueue::with_wheel(wheel);
    }

    /// Whether this run's events go through the timing wheel.
    #[cfg(test)]
    pub(crate) fn uses_wheel(&self) -> bool {
        self.queue.wheel_stats().is_some()
    }

    /// Simulate every period even when the cohort could be fast-forwarded:
    /// the reference the fast-forward equivalence suite compares against.
    #[cfg(test)]
    pub(crate) fn full_simulation(&mut self) {
        self.fast_forward = false;
    }

    /// Run to completion and return the cohort report.
    ///
    /// The event loop is a profiling hook: processed events are flushed
    /// to the `netsim.events` counter in 2^16 batches **plus a final
    /// flush on drain** (so short shards are counted exactly), wheel
    /// pressure goes to the `netsim.wheel_depth_max` /
    /// `netsim.wheel_cascades` / `netsim.wheel_overflow_max` gauges
    /// (`netsim.heap_depth_max` for small cohorts, on the heap), the
    /// end-of-run rate to `netsim.events_per_sec`, and (for standalone
    /// runs — the sweep pool's display takes priority inside a sweep)
    /// simulated time drives a stderr progress line toward `t_end`. The
    /// same batches carry `netsim.txend.candidates` and
    /// `netsim.txend.colliders` (listen windows and colliding records seen
    /// per `TxEnd`); the final flush adds `netsim.ff.periods_skipped` and
    /// `netsim.ff.events_skipped`. None of it runs unless observability is
    /// enabled, and none of it feeds back into the simulation.
    ///
    /// Eligible cohorts skip whole steady periods once one passes without
    /// a first contact (the `steady` module); the report is field-identical
    /// to the full simulation, and its `events` counts what the full run
    /// would have handled, while `netsim.events` counts events handled.
    pub fn run(self) -> CohortReport {
        self.run_counted().0
    }

    /// [`NetSimulator::run`], also returning how many whole periods the
    /// fast-forward skipped.
    pub(crate) fn run_counted(mut self) -> (CohortReport, u64) {
        assert_eq!(
            self.nodes.len(),
            self.topo.len(),
            "node count must match topology size"
        );
        for i in 0..self.nodes.len() {
            self.queue.push(self.nodes.join[i], EventKind::Join(i));
            if let Some(leave) = self.nodes.leave_of(i) {
                self.queue.push(leave, EventKind::Leave(i));
            }
        }
        let mut ff = self.fast_forward_plan();
        // the next checkpoint, mirrored here so the hot loop pays one
        // comparison per event
        let mut checkpoint_at = ff.as_ref().map_or(Tick::MAX, |f| f.next);
        // Flush-batched so the hot loop touches no shared atomics; 2^16
        // events ≈ a few ms of work, plenty fine-grained for profiling.
        const FLUSH_EVERY: u64 = 1 << 16;
        let progress = Progress::new("netsim", self.cfg.t_end.0);
        let observing = nd_obs::metrics::enabled() || progress.is_active();
        let wall_start = observing.then(std::time::Instant::now);
        // events handled; a fast-forward adds what it skipped separately,
        // so this never jumps and the `==` batch test below never starves
        let mut total_events: u64 = 0;
        let mut flushed = Flushed::default();
        let mut depth_high: usize = 0;
        // only the heap needs per-event depth sampling — the
        // wheel tracks its own high-water internally
        let track_depth = observing && self.queue.wheel_stats().is_none();
        // the per-event completed-cluster discard can only ever fire with 2+
        // clusters: a single cluster's completion exits the loop before the
        // next pop, so skip the owner lookup entirely on the common path
        let stopping = self.stop_when_complete && self.remaining.len() > 1;
        let stop_all = self.stop_when_complete;
        while !(stop_all && self.clusters_active == 0) {
            // fire any packet end due before the next queued event; its
            // reserved seq makes the (time, seq) order identical to
            // having scheduled it
            if let Some(&(mut end, seq, idx)) = self.pending_ends.front() {
                if self
                    .queue
                    .peek_key()
                    .is_none_or(|(at, qseq)| (end, seq) < (at, qseq))
                {
                    self.pending_ends.pop_front();
                    if end > self.cfg.t_end {
                        self.queue.advance(end);
                        break;
                    }
                    if end >= checkpoint_at {
                        end += self.checkpoints_through(end, &mut ff, total_events);
                        checkpoint_at = ff.as_ref().map_or(Tick::MAX, |f| f.next);
                    }
                    if stopping
                        && self.remaining
                            [self.cluster_of[self.transmissions[idx - self.tx_base].node] as usize]
                            == 0
                    {
                        continue;
                    }
                    self.queue.advance(end);
                    self.handle_tx_end(idx);
                    total_events += 1;
                    if observing {
                        if track_depth {
                            depth_high = depth_high.max(self.queue.len());
                        }
                        if total_events - flushed.events == FLUSH_EVERY {
                            self.flush(&mut flushed, total_events);
                            progress.update(end.0);
                        }
                    }
                    continue;
                }
            }
            let Some(mut ev) = self.queue.pop() else {
                break;
            };
            if ev.at > self.cfg.t_end {
                self.queue.advance(ev.at);
                break;
            }
            if ev.at >= checkpoint_at {
                let dt = self.checkpoints_through(ev.at, &mut ff, total_events);
                checkpoint_at = ff.as_ref().map_or(Tick::MAX, |f| f.next);
                ev.at += dt;
                if let EventKind::RxStart { end, .. } = &mut ev.kind {
                    *end += dt;
                }
            }
            if stopping {
                // a completed cluster's tail events are discarded without
                // advancing the clock — exactly what a per-shard run does
                // by stopping, so sharded and whole-cohort runs agree
                let i = match ev.kind {
                    EventKind::Join(i) | EventKind::Leave(i) | EventKind::Wake(i) => i,
                    EventKind::TxStart { node, .. } | EventKind::RxStart { node, .. } => {
                        node as usize
                    }
                };
                if self.remaining[self.cluster_of[i] as usize] == 0 {
                    continue;
                }
            }
            self.queue.advance(ev.at);
            match ev.kind {
                EventKind::Join(i) => self.handle_join(i),
                EventKind::Leave(i) => self.handle_leave(i),
                EventKind::Wake(i) => self.handle_wake(i),
                EventKind::TxStart { node, payload } => self.handle_tx_start(node, payload, ev.at),
                EventKind::RxStart { node, end } => {
                    let i = node as usize;
                    // a stale window of a node that has since left
                    // (the old design cleared it from the buffer)
                    if self.nodes.present[i] {
                        self.timelines[self.cluster_of[i] as usize]
                            .push(Interval::new(ev.at, end), node);
                        self.nodes.stats[i].n_rx_windows += 1;
                        self.nodes.stats[i].rx_time += end - ev.at;
                    }
                }
            }
            total_events += 1;
            if observing {
                if track_depth {
                    depth_high = depth_high.max(self.queue.len());
                }
                if total_events - flushed.events == FLUSH_EVERY {
                    self.flush(&mut flushed, total_events);
                    progress.update(ev.at.0);
                }
            }
        }
        let (periods_skipped, events_skipped) = ff
            .as_ref()
            .map_or((0, 0), |f| (f.periods_skipped, f.events_skipped));
        if observing {
            // flush-on-drain: the remainder batch must land even for runs
            // shorter than one flush interval (a 10⁶-node cohort is many
            // such shards — undercounting them skews the cohort gauges)
            self.flush(&mut flushed, total_events);
            nd_obs::metrics::add("netsim.ff.periods_skipped", periods_skipped);
            nd_obs::metrics::add("netsim.ff.events_skipped", events_skipped);
            match self.queue.wheel_stats() {
                Some((wheel_depth, cascades, overflow_max)) => {
                    nd_obs::metrics::gauge_max("netsim.wheel_depth_max", wheel_depth as f64);
                    nd_obs::metrics::add("netsim.wheel_cascades", cascades);
                    nd_obs::metrics::gauge_max("netsim.wheel_overflow_max", overflow_max as f64);
                }
                None => nd_obs::metrics::gauge_max("netsim.heap_depth_max", depth_high as f64),
            }
            if let Some(start) = wall_start {
                let secs = start.elapsed().as_secs_f64();
                if secs > 0.0 {
                    nd_obs::metrics::gauge_max("netsim.events_per_sec", total_events as f64 / secs);
                }
            }
        }
        progress.finish();
        let elapsed = self.queue.now().min(self.cfg.t_end);
        let n = self.nodes.len();
        let report = CohortReport {
            elapsed,
            events: total_events + events_skipped,
            discovery: self.discovery,
            packets: self.packets,
            stats: std::mem::take(&mut self.nodes.stats),
            joins: std::mem::take(&mut self.nodes.join),
            leaves: (0..n).map(|i| self.nodes.leave_of(i)).collect(),
            cluster: self.cluster_label,
        };
        (report, periods_skipped)
    }

    /// The fast-forward plan for this run, or `None` when the cohort is
    /// ineligible: every node needs a steady period, the channel must be
    /// fault-free, and churn must settle early enough to leave room.
    fn fast_forward_plan(&self) -> Option<FastForward> {
        if !self.fast_forward {
            return None;
        }
        let n = self.nodes.len();
        let churn = (0..n).flat_map(|i| {
            std::iter::once((self.nodes.join[i], false))
                .chain(self.nodes.leave_of(i).map(|l| (l, true)))
        });
        FastForward::plan(
            self.nodes.behavior.iter().map(|b| b.steady_period()),
            churn,
            self.cfg.drop_probability > 0.0 || !self.topo.lossless(),
            self.cfg.t_end,
        )
    }

    /// Take every checkpoint up to `t` (the next event's instant; all
    /// earlier events handled). Returns the fast-forward distance — zero
    /// unless a checkpoint found a quiet period, in which case the whole
    /// simulation state has been shifted by it.
    fn checkpoints_through(&mut self, t: Tick, ff: &mut Option<FastForward>, handled: u64) -> Tick {
        let Some(f) = ff.as_mut() else {
            return Tick::ZERO;
        };
        while f.next <= t {
            let verdict = f.checkpoint(
                self.first_contacts,
                handled,
                &mut self.packets,
                &mut self.nodes.stats,
            );
            if let Verdict::Skip(dt) = verdict {
                self.shift_all(dt);
                return dt;
            }
        }
        Tick::ZERO
    }

    /// Move the whole simulation `dt` (whole steady periods) ahead: pending
    /// events and packet ends, the retained channel history, and every
    /// behaviour's emission cursors. Relative timing — all the channel
    /// model looks at — is unchanged.
    fn shift_all(&mut self, dt: Tick) {
        self.queue.shift_all(dt);
        for e in self.pending_ends.iter_mut() {
            e.0 += dt;
        }
        for tx in self.transmissions.iter_mut() {
            tx.iv = tx.iv.shifted(dt);
        }
        for tl in &mut self.timelines {
            for e in &mut tl.entries {
                e.0 = e.0.shifted(dt);
            }
        }
        for log in &mut self.nodes.own_tx {
            for iv in log.iter_mut() {
                *iv = iv.shifted(dt);
            }
        }
        for b in &mut self.nodes.behavior {
            b.skip(dt);
        }
    }

    /// Add everything counted since the last flush to the nd-obs counters.
    fn flush(&self, flushed: &mut Flushed, events: u64) {
        nd_obs::metrics::add("netsim.events", events - flushed.events);
        nd_obs::metrics::add(
            "netsim.txend.candidates",
            self.txend_candidates - flushed.candidates,
        );
        nd_obs::metrics::add(
            "netsim.txend.colliders",
            self.txend_colliders - flushed.colliders,
        );
        *flushed = Flushed {
            events,
            candidates: self.txend_candidates,
            colliders: self.txend_colliders,
        };
    }

    fn handle_join(&mut self, i: usize) {
        self.nodes.present[i] = true;
        self.arm(i);
    }

    /// Refill node `i`'s buffer from its behaviour if empty (translating
    /// local ops to simulation time) and schedule a wake for the front.
    fn arm(&mut self, i: usize) {
        let now = self.queue.now();
        if !self.nodes.present[i] {
            return;
        }
        while !self.nodes.proactive_done[i] {
            // the behaviour lives on the node's local timeline: 0 = join
            let join = self.nodes.join[i];
            let local_after = now.saturating_sub(join);
            let mut ops = std::mem::take(&mut self.op_scratch);
            ops.clear();
            self.nodes.behavior[i].next_ops_into(local_after, &mut self.nodes.rng[i], &mut ops);
            if ops.is_empty() {
                self.nodes.proactive_done[i] = true;
                self.op_scratch = ops;
                break;
            }
            let mut last = Tick::ZERO;
            for &op in ops.iter() {
                debug_assert!(op.at() >= local_after, "behavior emitted an op in the past");
                let op = shift_op(op, join, now);
                last = last.max(op.at());
                self.enqueue_op(i, op);
            }
            self.op_scratch = ops;
            // refill again when the batch runs out. The tick lands on the
            // batch's last op and is pushed after it, so it fires once
            // everything here has been handled; refills are cursor-driven
            // (a behaviour emits from where it left off, to a fixed chunk
            // boundary), so the refill instant does not change the op
            // stream. A batch wholly due right now — possible at a join
            // onto a busy instant — refills again immediately: the old
            // same-instant wake-then-refill cascade, minus the events.
            if last > now {
                self.queue.push(last, EventKind::Wake(i));
                break;
            }
        }
    }

    /// Route one simulation-time op straight onto the event queue — no
    /// per-node buffer, no per-op wake dispatch. Departures and the
    /// horizon silence pending ops exactly as they silenced the old
    /// buffered wakes: the op events check presence when they fire.
    fn enqueue_op(&mut self, i: usize, op: Op) {
        match op {
            Op::Rx { at, duration } => self.queue.push(
                at,
                EventKind::RxStart {
                    node: i as u32,
                    end: at + duration,
                },
            ),
            Op::Tx { at, payload } => self.queue.push(
                at,
                EventKind::TxStart {
                    node: i as u32,
                    payload,
                },
            ),
        }
    }

    /// A refill tick: the node's last emitted batch has just run out.
    fn handle_wake(&mut self, i: usize) {
        self.arm(i);
    }

    /// A scheduled beacon starts: record it on the shared channel and
    /// book its `TxEnd`.
    fn handle_tx_start(&mut self, node: u32, payload: u64, at: Tick) {
        let i = node as usize;
        if !self.nodes.present[i] {
            return; // a stale beacon of a node that has since left
        }
        let iv = Interval::new(at, at + self.cfg.radio.omega);
        if self.need_own_tx {
            self.nodes.own_tx[i].push(iv);
            if self.nodes.own_tx[i].len() & 63 == 0 {
                // nodes that transmit but rarely pass geometry never reach
                // the blanking path; prune here so their own-tx logs stay
                // bounded regardless
                let horizon = self.prune_horizon(at);
                self.prune_own_tx(i, horizon);
            }
        }
        self.nodes.stats[i].n_tx += 1;
        self.nodes.stats[i].tx_time += self.cfg.radio.omega;
        self.packets.sent += 1;
        let idx = self.tx_base + self.transmissions.len();
        self.transmissions.push_back(TxRecord {
            node: i,
            iv,
            payload,
            aborted: false,
        });
        let seq = self.queue.alloc_seq();
        self.pending_ends.push_back((iv.end, seq, idx));
    }

    fn handle_leave(&mut self, i: usize) {
        let now = self.queue.now();
        self.nodes.present[i] = false;
        // truncate listening windows that extend past departure (and give
        // the unused tail back to the duty-cycle accounting); the new end
        // is clamped to ≥ start so the timeline stays sorted by start —
        // a wholly-future window becomes empty in place
        let tl = &mut self.timelines[self.cluster_of[i] as usize];
        for e in tl.entries.iter_mut().skip(tl.prune) {
            if e.1 as usize == i && e.0.end > now {
                let cut_start = e.0.start.max(now);
                self.nodes.stats[i].rx_time = self.nodes.stats[i]
                    .rx_time
                    .saturating_sub(e.0.end - cut_start);
                e.0 = Interval::new(e.0.start, cut_start);
            }
        }
        // an in-flight packet is cut short: the truncated airtime still
        // interferes, but the packet is corrupt
        for tx in self.transmissions.iter_mut() {
            if tx.node == i && tx.iv.end > now {
                let cut_start = tx.iv.start.min(now);
                self.nodes.stats[i].tx_time =
                    self.nodes.stats[i].tx_time.saturating_sub(tx.iv.end - now);
                tx.iv = Interval::new(cut_start, now);
                tx.aborted = true;
            }
        }
    }

    fn handle_tx_end(&mut self, idx: usize) {
        let (sender, iv, payload, aborted) = {
            let tx = &self.transmissions[idx - self.tx_base];
            (tx.node, tx.iv, tx.payload, tx.aborted)
        };
        self.prune_tx(iv.start);
        if aborted || iv.is_empty() {
            return; // sender left mid-packet; nothing deliverable
        }
        let horizon = self.prune_horizon(iv.start);

        // one pass over the retained records: collision candidates plus
        // start-model half-duplex blankers
        let start_model = matches!(self.cfg.overlap, nd_core::coverage::OverlapModel::Start);
        if self.cfg.collisions || (self.cfg.half_duplex && start_model) {
            self.scan_tx(idx, iv);
        }
        let colliders = std::mem::take(&mut self.colliders);

        // candidate receivers: owners of scheduled windows overlapping the
        // packet, found by binary search in the cluster's listen timeline
        // (audibility never crosses a cluster boundary, so only the
        // sender's own neighborhood is consulted)
        let cluster = self.cluster_of[sender] as usize;
        let mut cand = std::mem::take(&mut self.cand);
        {
            let tl = &mut self.timelines[cluster];
            let lo = tl.candidates_from(iv.start, horizon);
            for &(w, node) in &tl.entries[lo..] {
                if w.start >= iv.end {
                    break;
                }
                let cut = w.intersect(&iv);
                if !cut.is_empty() {
                    cand.push((node, cut));
                }
            }
        }
        self.txend_candidates += cand.len() as u64;
        self.txend_colliders += colliders.len() as u64;
        // group windows by receiver, ascending id — the stable sort keeps
        // each node's windows in schedule order, so the per-node cover is
        // exactly what its own window list would have produced
        cand.sort_by_key(|&(node, _)| node);

        let mut reactive: Vec<(usize, Vec<Op>)> = Vec::new();
        let mut at = 0;
        while at < cand.len() {
            let rx = cand[at].0 as usize;
            let group_start = at;
            while at < cand.len() && cand[at].0 as usize == rx {
                at += 1;
            }
            let windows = &cand[group_start..at];
            if !self.topo.in_range(sender, rx) {
                continue;
            }
            // the receiver must be in the network for the whole packet
            if !self.nodes.present_during(rx, iv) || !self.nodes.present[rx] {
                continue;
            }
            // geometry against the scheduled windows, then half-duplex
            // blanking (Appendix A.5); under the paper's start-of-packet
            // overlap model both reduce to point queries — no interval
            // algebra on the hot path
            if start_model {
                if !windows.iter().any(|&(_, w)| w.contains(iv.start)) {
                    continue; // not receivable at all — not counted as a loss
                }
                if self.cfg.half_duplex && self.blank_stamp[rx] == self.blank_epoch {
                    self.packets.lost_self_blocking += 1;
                    continue;
                }
            } else {
                let scheduled = IntervalSet::from_intervals(windows.iter().map(|&(_, w)| w));
                if !self.geometry_ok(&scheduled, iv) {
                    continue; // not receivable at all — not counted as a loss
                }
                if self.cfg.half_duplex {
                    let effective = self.blanked_cover(rx, iv, &scheduled);
                    if !self.geometry_ok(&effective, iv) {
                        self.packets.lost_self_blocking += 1;
                        continue;
                    }
                }
            }
            // collisions: any other in-range transmission overlapping the
            // packet destroys it at this receiver (ALOHA, Eq. 12)
            if self.cfg.collisions {
                let collided = colliders.iter().any(|&q| {
                    let tx = &self.transmissions[q - self.tx_base];
                    tx.node != rx && self.topo.in_range(tx.node, rx)
                });
                if collided {
                    self.packets.lost_collision += 1;
                    continue;
                }
            }
            // fault injection, rolled on the receiver's private stream
            let p_drop = self.cfg.drop_probability + self.topo.link_loss(sender, rx);
            if p_drop > 0.0 && self.nodes.rng[rx].gen::<f64>() < p_drop {
                self.packets.lost_fault += 1;
                continue;
            }
            // success
            self.packets.received += 1;
            self.nodes.stats[rx].n_received += 1;
            if self.discovery.one_way(rx, sender).is_none() {
                // a first contact for this ordered pair: count the
                // cluster down toward completion
                self.first_contacts += 1;
                self.remaining[cluster] -= 1;
                if self.remaining[cluster] == 0 {
                    self.clusters_active -= 1;
                }
            }
            self.discovery.record(rx, sender, iv.start);
            let local_at = iv.start.saturating_sub(self.nodes.join[rx]);
            let ops = self.nodes.behavior[rx].on_reception(
                local_at,
                sender,
                payload,
                &mut self.nodes.rng[rx],
            );
            if !ops.is_empty() {
                reactive.push((rx, ops));
            }
        }
        let now = self.queue.now();
        for (rx, ops) in reactive {
            let join = self.nodes.join[rx];
            for op in ops {
                self.enqueue_op(rx, shift_op(op, join, now));
            }
        }
        let mut colliders = colliders;
        colliders.clear();
        self.colliders = colliders;
        cand.clear();
        self.cand = cand;
    }

    /// How far back a record can still matter at packet-start `t`: past
    /// this horizon nothing overlaps the packet or its blanking expansion.
    fn prune_horizon(&self, t: Tick) -> Tick {
        let guard =
            self.cfg.radio.omega + self.cfg.radio.do_rx_tx + self.cfg.radio.do_tx_rx + Tick(1);
        t.saturating_sub(guard * 4)
    }

    /// Advance node `i`'s lazy own-tx prune cursor past records ending
    /// before `horizon`, compacting the log when the dead prefix dominates.
    fn prune_own_tx(&mut self, i: usize, horizon: Tick) {
        let own_tx = &mut self.nodes.own_tx[i];
        let prune = &mut self.nodes.own_tx_prune[i];
        while *prune < own_tx.len() && own_tx[*prune].end < horizon {
            *prune += 1;
        }
        if *prune > 64 && *prune * 2 >= own_tx.len() {
            own_tx.drain(..*prune);
            *prune = 0;
        }
    }

    /// Subtract the receiver's own transmissions (expanded by turnaround
    /// times) from a listening cover, advancing the node's lazy prune
    /// cursor past spent transmissions.
    fn blanked_cover(&mut self, rx: usize, packet: Interval, cover: &IntervalSet) -> IntervalSet {
        self.prune_own_tx(rx, self.prune_horizon(packet.start));
        let radio = &self.cfg.radio;
        let prune = self.nodes.own_tx_prune[rx];
        let blanked = self.nodes.own_tx[rx][prune..].iter().map(|tx| {
            Interval::new(
                tx.start.saturating_sub(radio.do_rx_tx),
                tx.end + radio.do_tx_rx,
            )
        });
        cover.subtract(&IntervalSet::from_intervals(blanked))
    }

    /// Apply the configured overlap model to a listening cover.
    fn geometry_ok(&self, cover: &IntervalSet, packet: Interval) -> bool {
        match self.cfg.overlap {
            nd_core::coverage::OverlapModel::Start => cover.contains(packet.start),
            nd_core::coverage::OverlapModel::AnyOverlap => !cover.is_empty(),
            nd_core::coverage::OverlapModel::FullPacket => {
                cover.intervals().len() == 1 && {
                    let iv = cover.intervals()[0];
                    iv.start <= packet.start && iv.end >= packet.end
                }
            }
        }
    }

    /// One sequential pass over the retained transmission records around
    /// `iv`, filling the scratch lists: `colliders` gets the absolute
    /// indices of *other* records overlapping the packet (ALOHA, Eq. 12),
    /// and the senders whose record — expanded by the turnaround times —
    /// covers the packet start get this scan's blanking mark (start-model
    /// half-duplex test).
    ///
    /// Records are kept in nondecreasing start order, are at most ω long
    /// (leave-truncation only shortens them), and queries arrive with
    /// nondecreasing packet starts, so the lower bound is a monotone
    /// cursor — amortized O(1) per call, one cache-friendly walk instead
    /// of per-node log lookups.
    fn scan_tx(&mut self, idx: usize, iv: Interval) {
        self.blank_epoch = self.blank_epoch.wrapping_add(1);
        if self.blank_epoch == 0 {
            // wrapped: clear the marks so no stale stamp can match
            self.blank_stamp.fill(0);
            self.blank_epoch = 1;
        }
        let radio = &self.cfg.radio;
        // a record can still matter if it overlaps the packet (collision)
        // or its expansion reaches the packet start (blanking): both imply
        // `start + ω + do_tx_rx ≥ iv.start`
        let reach_back = radio.omega + radio.do_tx_rx;
        let mut lo = self.collider_search.max(self.tx_base);
        while lo - self.tx_base < self.transmissions.len()
            && self.transmissions[lo - self.tx_base].iv.start + reach_back < iv.start
        {
            lo += 1;
        }
        self.collider_search = lo;
        // blanking looks ahead of the packet too: a record starting within
        // `do_rx_tx` after the packet start still blanks its sender
        let scan_end = iv.end.max(iv.start + radio.do_rx_tx + Tick(1));
        for local in (lo - self.tx_base)..self.transmissions.len() {
            let tx = &self.transmissions[local];
            if tx.iv.start >= scan_end {
                break;
            }
            let q = self.tx_base + local;
            if q != idx && tx.iv.overlaps(&iv) {
                self.colliders.push(q);
            }
            if Interval::new(
                tx.iv.start.saturating_sub(radio.do_rx_tx),
                tx.iv.end + radio.do_tx_rx,
            )
            .contains(iv.start)
            {
                self.blank_stamp[tx.node] = self.blank_epoch;
            }
        }
    }

    /// Drop transmission records that can no longer affect any packet
    /// decision. A record is only dropped once its own `TxEnd` has
    /// provably fired (its end — even a leave-truncated one — is within
    /// one packet length of the original end, far inside the horizon
    /// guard), so absolute indices held by pending events stay valid.
    fn prune_tx(&mut self, t: Tick) {
        let horizon = self.prune_horizon(t);
        while let Some(front) = self.transmissions.front() {
            if front.iv.end >= horizon {
                break;
            }
            self.transmissions.pop_front();
            self.tx_base += 1;
        }
    }
}

/// What the last profiling flush covered.
#[derive(Default)]
struct Flushed {
    events: u64,
    candidates: u64,
    colliders: u64,
}

/// Translate a node-local op to simulation time (`+join`), clamped so a
/// cascade never schedules into the past.
fn shift_op(op: Op, join: Tick, at_least: Tick) -> Op {
    match op {
        Op::Tx { at, payload } => Op::Tx {
            at: (at + join).max(at_least),
            payload,
        },
        Op::Rx { at, duration } => Op::Rx {
            at: (at + join).max(at_least),
            duration,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::params::RadioParams;
    use nd_core::schedule::{BeaconSeq, ReceptionWindows, Schedule};
    use nd_sim::ScheduleBehavior;

    fn radio(omega_us: u64) -> RadioParams {
        RadioParams::ideal(Tick::from_micros(omega_us), 1.0)
    }

    fn adv(period_us: u64, phase_us: u64) -> Schedule {
        Schedule::tx_only(
            BeaconSeq::uniform(
                1,
                Tick::from_micros(period_us),
                Tick::from_micros(4),
                Tick::from_micros(phase_us),
            )
            .unwrap(),
        )
    }

    fn scan(window_us: u64, period_us: u64) -> Schedule {
        Schedule::rx_only(
            ReceptionWindows::single(
                Tick::ZERO,
                Tick::from_micros(window_us),
                Tick::from_micros(period_us),
            )
            .unwrap(),
        )
    }

    fn base_cfg(ms: u64) -> SimConfig {
        SimConfig::paper_baseline(Tick::from_millis(ms), 42).with_radio(radio(4))
    }

    fn on(sched: Schedule) -> NodeSpec {
        NodeSpec::always_on(Box::new(ScheduleBehavior::new(sched)))
    }

    /// Every `period_us`: one beacon at `beacon_us` and one listening
    /// window `[window_us, window_us + len_us)`.
    fn duplex(period_us: u64, beacon_us: u64, window_us: u64, len_us: u64) -> Schedule {
        let us = Tick::from_micros;
        Schedule::full(
            BeaconSeq::uniform(1, us(period_us), us(4), us(beacon_us)).unwrap(),
            ReceptionWindows::single(us(window_us), us(len_us), us(period_us)).unwrap(),
        )
    }

    #[test]
    fn advertiser_meets_scanner() {
        let mut net = NetSimulator::new(base_cfg(10), Topology::full(2));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(scan(50, 200)));
        let report = net.run();
        // the beacon at 10 µs lands inside the scanner's [0, 50) window
        assert_eq!(report.discovery.one_way(1, 0), Some(Tick::from_micros(10)));
        // the scanner never transmits, so the advertiser never discovers it
        assert_eq!(report.discovery.one_way(0, 1), None);
        // 100 beacons in 10 ms; every other one meets a window
        assert_eq!(report.packets.sent, 100);
        assert_eq!(report.packets.received, 50);
        assert_eq!(report.elapsed, Tick::from_millis(10));
        assert_eq!(report.stats[1].label, "schedule");
    }

    #[test]
    fn out_of_range_nodes_never_discover() {
        let mut topo = Topology::full(2);
        topo.set_bidi(0, 1, false);
        let mut net = NetSimulator::new(base_cfg(10), topo);
        net.add_node(on(adv(100, 10)));
        net.add_node(on(scan(50, 200)));
        let report = net.run();
        assert_eq!(report.discovery.one_way(1, 0), None);
        assert!(report.packets.sent > 0);
        assert_eq!(report.packets.received, 0);
    }

    #[test]
    fn per_link_loss_is_directional() {
        // two nodes that hear each other (0 beacons at 0 µs and listens in
        // [50, 90) µs, 1 beacons at 60 µs and listens in [0, 40) µs):
        // losing every packet from 0 to 1 leaves 1 → 0 untouched
        let mut topo = Topology::full(2);
        topo.set_link_loss(0, 1, 1.0);
        let mut net = NetSimulator::new(base_cfg(10), topo);
        net.add_node(on(duplex(100, 0, 50, 40)));
        net.add_node(on(duplex(100, 60, 0, 40)));
        let report = net.run();
        assert_eq!(report.discovery.one_way(1, 0), None);
        assert_eq!(report.discovery.one_way(0, 1), Some(Tick::from_micros(60)));
        assert!(report.packets.lost_fault > 0);
    }

    #[test]
    fn full_packet_model_requires_containment() {
        // window [0, 6) µs, 4 µs packet from 3 µs: it overlaps the window
        // but does not fit inside it
        let run = |overlap| {
            let mut net = NetSimulator::new(base_cfg(1).with_overlap(overlap), Topology::full(2));
            net.add_node(on(adv(100, 3)));
            net.add_node(on(scan(6, 100)));
            net.run().discovery.one_way(1, 0)
        };
        use nd_core::coverage::OverlapModel;
        assert_eq!(run(OverlapModel::FullPacket), None);
        assert_eq!(run(OverlapModel::Start), Some(Tick::from_micros(3)));
        assert_eq!(run(OverlapModel::AnyOverlap), Some(Tick::from_micros(3)));
    }

    #[test]
    fn half_duplex_blanks_own_airtime_plus_turnaround() {
        // the listener's own beacon occupies [10, 14) µs of its [0, 50)
        // window (Appendix A.5); a TX→RX turnaround keeps it deaf longer
        let cases = [
            // (sender beacon µs, turnaround µs, blanked)
            (10, 0, true),
            (16, 0, false),
            (16, 5, true),
        ];
        for overlap in [
            nd_core::coverage::OverlapModel::Start,
            nd_core::coverage::OverlapModel::FullPacket,
        ] {
            for (beacon_us, turnaround_us, blanked) in cases {
                let mut radio = radio(4);
                radio.do_tx_rx = Tick::from_micros(turnaround_us);
                let cfg = base_cfg(1).with_radio(radio).with_overlap(overlap);
                let mut net = NetSimulator::new(cfg, Topology::full(2));
                net.add_node(on(adv(100, beacon_us)));
                net.add_node(on(duplex(100, 10, 0, 50)));
                let report = net.run();
                let case = format!("{overlap:?} {beacon_us} µs, turnaround {turnaround_us} µs");
                let heard = (!blanked).then(|| Tick::from_micros(beacon_us));
                assert_eq!(report.discovery.one_way(1, 0), heard, "{case}");
                assert_eq!(report.packets.lost_self_blocking > 0, blanked, "{case}");
                assert_eq!(report.packets.lost_collision, 0, "{case}");
            }
        }
    }

    #[test]
    fn partial_overlap_collides_only_when_airtimes_overlap() {
        // ω = 4 µs beacons at 10 and 16 µs do not overlap: both heard
        let mut net = NetSimulator::new(base_cfg(1), Topology::full(3));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(adv(100, 16)));
        net.add_node(on(scan(100, 100)));
        let report = net.run();
        assert_eq!(report.discovery.one_way(2, 0), Some(Tick::from_micros(10)));
        assert_eq!(report.discovery.one_way(2, 1), Some(Tick::from_micros(16)));
        assert_eq!(report.packets.lost_collision, 0);
        // at 10 and 12 µs they overlap by half a packet: both destroyed
        let mut net = NetSimulator::new(base_cfg(1), Topology::full(3));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(adv(100, 12)));
        net.add_node(on(scan(100, 100)));
        let report = net.run();
        assert_eq!(report.discovery.one_way(2, 0), None);
        assert_eq!(report.discovery.one_way(2, 1), None);
        assert_eq!(report.packets.received, 0);
        assert!(report.packets.lost_collision > 0);
    }

    #[test]
    fn stats_measure_duty_cycles() {
        let mut net = NetSimulator::new(base_cfg(100), Topology::full(2));
        net.add_node(on(adv(1000, 0)));
        net.add_node(on(scan(100, 1000)));
        let report = net.run();
        assert_eq!(report.elapsed, Tick::from_millis(100));
        // advertiser: β = 4/1000; scanner: γ = 100/1000
        let beta = report.stats[0].beta(report.elapsed);
        assert!((beta - 0.004).abs() < 5e-4, "beta {beta}");
        let gamma = report.stats[1].gamma(report.elapsed);
        assert!((gamma - 0.1).abs() < 5e-3, "gamma {gamma}");
    }

    #[test]
    fn late_joiner_hears_nothing_before_joining() {
        // scanner joins at 5 ms; the advertiser's beacons before that are
        // lost, and its schedule (window at local 0) starts at join
        let mut net = NetSimulator::new(base_cfg(10), Topology::full(2));
        net.add_node(on(adv(100, 10)));
        net.add_node(NodeSpec::windowed(
            Box::new(ScheduleBehavior::new(scan(50, 200))),
            Tick::from_millis(5),
            None,
        ));
        let report = net.run();
        let first = report.discovery.one_way(1, 0).unwrap();
        assert!(
            first >= Tick::from_millis(5),
            "heard before joining: {first:?}"
        );
        // beacons every 100 µs land in the first local window quickly
        assert!(first < Tick::from_millis(6));
    }

    #[test]
    fn leaver_hears_nothing_after_leaving() {
        // the scanner leaves at 2 ms, the advertiser only joins at 3 ms:
        // never co-present, so nothing may be discovered
        let mut net = NetSimulator::new(base_cfg(10), Topology::full(2));
        net.add_node(NodeSpec::windowed(
            Box::new(ScheduleBehavior::new(adv(100, 10))),
            Tick::from_millis(3),
            None,
        ));
        net.add_node(NodeSpec::windowed(
            Box::new(ScheduleBehavior::new(scan(200, 200))),
            Tick::ZERO,
            Some(Tick::from_millis(2)),
        ));
        let report = net.run();
        assert_eq!(report.discovery.one_way(1, 0), None);
        assert_eq!(report.copresence(0, 1), None);
        // and the scanner's listening accounting stops at departure
        assert!(report.stats[1].rx_time <= Tick::from_millis(2));
    }

    #[test]
    fn collisions_destroy_overlapping_beacons() {
        let mut net = NetSimulator::new(base_cfg(1), Topology::full(3));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(scan(100, 100)));
        let report = net.run();
        assert_eq!(report.discovery.one_way(2, 0), None);
        assert_eq!(report.discovery.one_way(2, 1), None);
        assert!(report.packets.lost_collision > 0);

        let mut cfg = base_cfg(1);
        cfg.collisions = false;
        let mut net = NetSimulator::new(cfg, Topology::full(3));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(scan(100, 100)));
        let report = net.run();
        assert!(report.discovery.one_way(2, 0).is_some());
        assert!(report.discovery.one_way(2, 1).is_some());
    }

    #[test]
    fn departed_node_no_longer_collides() {
        // two advertisers collide while both present; after node 1 leaves
        // at 0.5 ms, node 0's beacons get through
        let mut net = NetSimulator::new(base_cfg(2), Topology::full(3));
        net.add_node(on(adv(100, 10)));
        net.add_node(NodeSpec::windowed(
            Box::new(ScheduleBehavior::new(adv(100, 10))),
            Tick::ZERO,
            Some(Tick::from_micros(500)),
        ));
        net.add_node(on(scan(100, 100)));
        let report = net.run();
        let first = report.discovery.one_way(2, 0).unwrap();
        assert!(first >= Tick::from_micros(500), "{first:?}");
        assert_eq!(report.discovery.one_way(2, 1), None);
        assert!(report.packets.lost_collision > 0);
    }

    #[test]
    fn early_stop_on_cohort_completion() {
        let mut net = NetSimulator::new(base_cfg(1000), Topology::full(3));
        // beacon offsets inside everyone's [50, 250) µs window, spaced so
        // they neither collide nor hit the senders' own blanking
        for phase in [60u64, 120, 180] {
            net.add_node(on(duplex(300, phase, 50, 200)));
        }
        net.stop_when_all_discovered(true);
        let report = net.run();
        assert!(report.discovery.complete());
        assert!(report.elapsed < Tick::from_millis(5), "stopped early");
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut cfg = base_cfg(20);
            cfg.drop_probability = 0.3;
            cfg.seed = 99;
            let mut net = NetSimulator::new(cfg, Topology::full(5));
            for phase in [3u64, 31, 57, 83] {
                net.add_node(on(adv(97, phase)));
            }
            net.add_node(on(scan(53, 211)));
            net.run()
        };
        let a = build();
        let b = build();
        for s in 0..4 {
            assert_eq!(a.discovery.one_way(4, s), b.discovery.one_way(4, s));
        }
        assert_eq!(a.packets.received, b.packets.received);
        assert_eq!(a.packets.lost_fault, b.packets.lost_fault);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn heap_and_wheel_engines_agree() {
        let run = |wheel: bool| {
            let mut cfg = base_cfg(20);
            cfg.drop_probability = 0.2;
            cfg.seed = 7;
            let mut net = NetSimulator::new(cfg, Topology::full(4));
            net.force_queue(wheel);
            for phase in [3u64, 31, 57] {
                net.add_node(on(adv(97, phase)));
            }
            net.add_node(on(scan(53, 211)));
            net.run()
        };
        let wheel = run(true);
        let heap = run(false);
        assert_eq!(wheel.events, heap.events);
        assert_eq!(wheel.elapsed, heap.elapsed);
        assert_eq!(wheel.packets, heap.packets);
        assert_eq!(wheel.discovery, heap.discovery);
        assert_eq!(wheel.stats, heap.stats);
    }

    #[test]
    fn clustered_topology_isolates_neighborhoods() {
        // nodes {0, 2} on channel 0, {1, 3} on channel 1: discovery never
        // crosses the cluster boundary, and each cluster completes on its
        // own under stop_when_all_discovered
        let topo = Topology::clusters(vec![0, 1, 0, 1]);
        let mut net = NetSimulator::new(base_cfg(1000), topo);
        for phase in [60u64, 120, 130, 190] {
            net.add_node(on(duplex(300, phase, 50, 200)));
        }
        net.stop_when_all_discovered(true);
        let report = net.run();
        assert!(report.elapsed < Tick::from_millis(5), "stopped early");
        assert_eq!(report.cluster, vec![0, 1, 0, 1]);
        for (rx, tx) in [(0, 2), (2, 0), (1, 3), (3, 1)] {
            assert!(report.discovery.one_way(rx, tx).is_some(), "{rx} ← {tx}");
        }
        for (rx, tx) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            assert_eq!(report.discovery.one_way(rx, tx), None, "{rx} ← {tx}");
        }
    }

    #[test]
    #[should_panic(expected = "node count must match topology")]
    fn topology_size_is_enforced() {
        let net = NetSimulator::new(base_cfg(1), Topology::full(2));
        let _ = net.run();
    }
}
