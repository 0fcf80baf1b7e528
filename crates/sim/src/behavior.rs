//! Device behaviours: how a protocol drives its radio over time.
//!
//! The simulator pulls [`Op`]s (transmissions and reception windows) from
//! each device's [`Behavior`]. Static protocols (everything in Section 5 of
//! the paper) are driven by a periodic [`nd_core::Schedule`] via
//! [`ScheduleBehavior`]; reactive protocols (mutual assistance \[13\],
//! BLE-style random advertising delays) implement [`Behavior`] directly and
//! may react to received packets.

use nd_core::schedule::Schedule;
use nd_core::time::Tick;
use rand::RngCore;

/// Opaque per-packet payload. Protocols define the meaning; e.g. the
/// mutual-assistance protocol encodes the sender's next listen instant in
/// nanoseconds.
pub type Payload = u64;

/// A single radio operation requested by a behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Transmit one beacon starting at `at` (airtime is the radio's ω).
    Tx {
        /// Start instant.
        at: Tick,
        /// Payload carried in the beacon.
        payload: Payload,
    },
    /// Listen during `[at, at + duration)`.
    Rx {
        /// Start instant.
        at: Tick,
        /// Window length.
        duration: Tick,
    },
}

impl Op {
    /// The instant the operation begins.
    pub fn at(&self) -> Tick {
        match *self {
            Op::Tx { at, .. } | Op::Rx { at, .. } => at,
        }
    }
}

/// A protocol instance running on one simulated device.
///
/// The engine calls [`Behavior::next_ops`] whenever it has exhausted the
/// device's buffered operations; returning an empty vector means the device
/// schedules nothing further on its own (it may still react to receptions).
pub trait Behavior {
    /// Produce the next batch of operations starting at or after `after`.
    ///
    /// Implementations must return ops sorted by start time, all `≥ after`;
    /// returning an empty batch permanently idles the proactive side.
    fn next_ops(&mut self, after: Tick, rng: &mut dyn RngCore) -> Vec<Op>;

    /// Append the next batch of operations to `out` (same contract as
    /// [`Behavior::next_ops`]). Engines on the hot path call this with a
    /// reused scratch buffer so steady-state refills allocate nothing;
    /// behaviours with their own emission machinery override it.
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        out.extend(self.next_ops(after, rng));
    }

    /// Called when this device successfully receives a beacon; may return
    /// additional operations (e.g. the mutual-assistance reply beacon).
    /// `at` is the packet's start instant, `from` the sender's device index.
    fn on_reception(
        &mut self,
        at: Tick,
        from: usize,
        payload: Payload,
        rng: &mut dyn RngCore,
    ) -> Vec<Op> {
        let _ = (at, from, payload, rng);
        Vec::new()
    }

    /// A short human-readable protocol label for traces and reports.
    fn label(&self) -> String {
        "behavior".into()
    }

    /// The behaviour's exact period `H`, if it has one: a promise that its
    /// op stream (on the node-local timeline, from local 0 on) repeats
    /// every `H` ticks, that it ignores the RNG and receptions (no reactive
    /// ops), and that [`Behavior::skip`] moves it `dt` ticks ahead for any
    /// multiple `dt` of `H`. Engines may then fast-forward whole periods
    /// of a cohort that can discover nothing new. `None` (the default)
    /// turns that off; wrappers that change timing must not forward it.
    fn steady_period(&self) -> Option<Tick> {
        None
    }

    /// Advance the emission cursors by `dt`, a multiple of
    /// [`Behavior::steady_period`]: afterwards the behaviour emits what it
    /// would have emitted `dt` later, shifted by `dt`. Only called on
    /// behaviours that report a steady period.
    fn skip(&mut self, dt: Tick) {
        let _ = dt;
    }
}

/// Drives a static periodic [`Schedule`] (beacon sequence + reception
/// windows), optionally phase-shifted — the bridge from the analytical
/// world of `nd-core` to the simulator.
///
/// The phase models the random initial offset between devices: a device
/// with phase φ behaves as if its schedule had started at absolute time
/// −φ.
pub struct ScheduleBehavior {
    schedule: Schedule,
    phase_b: Tick,
    phase_c: Tick,
    label: String,
    /// Ops are generated one schedule period at a time; these cursors
    /// remember how far each side has been emitted.
    emitted_until_b: Tick,
    emitted_until_c: Tick,
    /// Reused per-side emission buffers: each side emits in start order,
    /// and a batch is their two-pointer merge — no sort, no allocation
    /// once the buffers have grown to a chunk's op count.
    scratch_tx: Vec<Op>,
    scratch_rx: Vec<Op>,
}

impl ScheduleBehavior {
    /// Wrap a schedule with zero phase.
    pub fn new(schedule: Schedule) -> Self {
        Self::with_phase(schedule, Tick::ZERO)
    }

    /// Wrap a schedule whose origin is shifted `phase` ticks into the past
    /// (both the beacon and the reception sequence are shifted together,
    /// preserving any intra-device correlation — important for the
    /// Appendix C protocols).
    pub fn with_phase(schedule: Schedule, phase: Tick) -> Self {
        ScheduleBehavior {
            schedule,
            phase_b: phase,
            phase_c: phase,
            label: "schedule".into(),
            emitted_until_b: Tick::ZERO,
            emitted_until_c: Tick::ZERO,
            scratch_tx: Vec::new(),
            scratch_rx: Vec::new(),
        }
    }

    /// Set a descriptive label (protocol name) for reports.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Access the underlying schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Emit beacon ops in `[cursor, until)` landing at/after `after`.
    fn emit_tx(&mut self, after: Tick, until: Tick, out: &mut Vec<Op>) {
        let Some(b) = &self.schedule.beacons else {
            return;
        };
        // absolute sim time t corresponds to schedule time t + phase
        let phase = self.phase_b;
        let from = self.emitted_until_b + phase;
        let to = until + phase;
        b.for_each_instant_in(from, to, |inst| {
            // map back to sim time; instants before the phase are skipped
            if let Some(at) = inst.checked_sub(phase) {
                if at >= after {
                    out.push(Op::Tx { at, payload: 0 });
                }
            }
        });
        self.emitted_until_b = until;
    }

    /// Emit listen-window ops in `[cursor, until)` landing at/after `after`.
    fn emit_rx(&mut self, after: Tick, until: Tick, out: &mut Vec<Op>) {
        let Some(c) = &self.schedule.windows else {
            return;
        };
        let phase = self.phase_c;
        let from = self.emitted_until_c + phase;
        let to = until + phase;
        c.for_each_instance_in(from, to, |iv| {
            if let Some(at) = iv.start.checked_sub(phase) {
                if at >= after {
                    out.push(Op::Rx {
                        at,
                        duration: iv.measure(),
                    });
                }
            }
        });
        self.emitted_until_c = until;
    }

    /// The emission chunk: one max(T_B, T_C) at a time.
    fn chunk(&self) -> Tick {
        let tb = self
            .schedule
            .beacons
            .as_ref()
            .map_or(Tick::ZERO, |b| b.period());
        let tc = self
            .schedule
            .windows
            .as_ref()
            .map_or(Tick::ZERO, |c| c.period());
        tb.max(tc).max(Tick(1))
    }
}

impl Behavior for ScheduleBehavior {
    fn next_ops(&mut self, after: Tick, rng: &mut dyn RngCore) -> Vec<Op> {
        let mut out = Vec::new();
        self.next_ops_into(after, rng, &mut out);
        out
    }

    fn next_ops_into(&mut self, after: Tick, _rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        let chunk = self.chunk();
        let mut txs = std::mem::take(&mut self.scratch_tx);
        let mut rxs = std::mem::take(&mut self.scratch_rx);
        txs.clear();
        rxs.clear();
        // keep emitting chunks until at least one op lands at/after `after`
        // (bounded: each chunk contains at least one op of each active side)
        let mut until = self.emitted_until_b.max(self.emitted_until_c).max(after) + chunk;
        for _ in 0..3 {
            self.emit_tx(after, until, &mut txs);
            self.emit_rx(after, until, &mut rxs);
            if !txs.is_empty() || !rxs.is_empty() {
                break;
            }
            until += chunk;
        }
        // each side is already in start order; merge with ties keeping Tx
        // first (what the stable sort over [tx..., rx...] used to produce)
        let (mut t, mut r) = (0, 0);
        out.reserve(txs.len() + rxs.len());
        while t < txs.len() && r < rxs.len() {
            if txs[t].at() <= rxs[r].at() {
                out.push(txs[t]);
                t += 1;
            } else {
                out.push(rxs[r]);
                r += 1;
            }
        }
        out.extend_from_slice(&txs[t..]);
        out.extend_from_slice(&rxs[r..]);
        self.scratch_tx = txs;
        self.scratch_rx = rxs;
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    /// lcm(T_B, T_C): both sides repeat, and the emission chunk
    /// (max(T_B, T_C)) divides it, so chunk boundaries — where straddling
    /// windows are split — repeat too.
    fn steady_period(&self) -> Option<Tick> {
        let tb = self.schedule.beacons.as_ref().map(|b| b.period());
        let tc = self.schedule.windows.as_ref().map(|c| c.period());
        match (tb, tc) {
            (Some(tb), Some(tc)) => tb.checked_lcm(tc),
            (Some(t), None) | (None, Some(t)) => Some(t),
            (None, None) => Some(self.chunk()),
        }
    }

    fn skip(&mut self, dt: Tick) {
        self.emitted_until_b += dt;
        self.emitted_until_c += dt;
    }
}

impl<B: Behavior + ?Sized> Behavior for Box<B> {
    fn next_ops(&mut self, after: Tick, rng: &mut dyn RngCore) -> Vec<Op> {
        (**self).next_ops(after, rng)
    }

    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        (**self).next_ops_into(after, rng, out)
    }

    fn on_reception(
        &mut self,
        at: Tick,
        from: usize,
        payload: Payload,
        rng: &mut dyn RngCore,
    ) -> Vec<Op> {
        (**self).on_reception(at, from, payload, rng)
    }

    fn label(&self) -> String {
        (**self).label()
    }

    fn steady_period(&self) -> Option<Tick> {
        (**self).steady_period()
    }

    fn skip(&mut self, dt: Tick) {
        (**self).skip(dt)
    }
}

/// A behaviour that does nothing proactively (pure sink; useful for tests
/// and for modelling passive sniffers that are configured reactively).
pub struct IdleBehavior;

impl Behavior for IdleBehavior {
    fn next_ops(&mut self, _after: Tick, _rng: &mut dyn RngCore) -> Vec<Op> {
        Vec::new()
    }

    fn label(&self) -> String {
        "idle".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::schedule::{BeaconSeq, ReceptionWindows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn test_schedule() -> Schedule {
        let b = BeaconSeq::uniform(
            2,
            Tick::from_micros(100),
            Tick::from_micros(4),
            Tick::from_micros(10),
        )
        .unwrap();
        let c = ReceptionWindows::single(
            Tick::from_micros(40),
            Tick::from_micros(20),
            Tick::from_micros(100),
        )
        .unwrap();
        Schedule::full(b, c)
    }

    #[test]
    fn schedule_behavior_emits_in_order() {
        let mut b = ScheduleBehavior::new(test_schedule());
        let ops = b.next_ops(Tick::ZERO, &mut rng());
        assert!(!ops.is_empty());
        for w in ops.windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
        // first period: Tx at 10 µs, Rx at 40 µs, Tx at 60 µs
        assert_eq!(
            ops[0],
            Op::Tx {
                at: Tick::from_micros(10),
                payload: 0
            }
        );
        assert!(ops.contains(&Op::Rx {
            at: Tick::from_micros(40),
            duration: Tick::from_micros(20)
        }));
    }

    #[test]
    fn schedule_behavior_continues_across_calls() {
        let mut b = ScheduleBehavior::new(test_schedule());
        let first = b.next_ops(Tick::ZERO, &mut rng());
        let last_at = first.last().unwrap().at();
        let second = b.next_ops(last_at + Tick(1), &mut rng());
        assert!(!second.is_empty());
        assert!(second[0].at() > last_at);
        // no duplicates across batches
        for op in &second {
            assert!(!first.contains(op));
        }
    }

    #[test]
    fn phase_shifts_ops_left() {
        let mut zero = ScheduleBehavior::new(test_schedule());
        let mut shifted = ScheduleBehavior::with_phase(test_schedule(), Tick::from_micros(15));
        let a = zero.next_ops(Tick::ZERO, &mut rng());
        let b = shifted.next_ops(Tick::ZERO, &mut rng());
        // schedule beacons at 10/60 µs per 100 µs; with phase 15 the sim
        // sees them at 45, 95, 145, … µs
        assert!(b.contains(&Op::Tx {
            at: Tick::from_micros(45),
            payload: 0
        }));
        assert!(b.contains(&Op::Tx {
            at: Tick::from_micros(95),
            payload: 0
        }));
        // the pre-phase 10 µs beacon is dropped, not wrapped to negative time
        assert!(!b.iter().any(|op| op.at() < Tick::from_micros(25)));
        // every shifted op is an unshifted op minus the phase
        let phase = Tick::from_micros(15);
        let mut more = zero.next_ops(a.last().unwrap().at() + Tick(1), &mut rng());
        let mut all_a = a;
        all_a.append(&mut more);
        for op in &b {
            assert!(
                all_a.iter().any(|oa| oa.at() == op.at() + phase),
                "op {op:?} has no phase-shifted counterpart"
            );
        }
    }

    #[test]
    fn tx_only_schedule() {
        let b =
            BeaconSeq::uniform(1, Tick::from_micros(50), Tick::from_micros(4), Tick::ZERO).unwrap();
        let mut beh = ScheduleBehavior::new(Schedule::tx_only(b)).labeled("adv");
        let ops = beh.next_ops(Tick::ZERO, &mut rng());
        assert!(ops.iter().all(|op| matches!(op, Op::Tx { .. })));
        assert_eq!(beh.label(), "adv");
    }

    #[test]
    fn steady_period_is_the_joint_period() {
        // T_B = T_C = 100 µs → H = 100 µs; T_B = 60, T_C = 90 → 180 µs
        let beh = ScheduleBehavior::new(test_schedule());
        assert_eq!(beh.steady_period(), Some(Tick::from_micros(100)));
        let b =
            BeaconSeq::uniform(1, Tick::from_micros(60), Tick::from_micros(4), Tick::ZERO).unwrap();
        let c = ReceptionWindows::single(Tick::ZERO, Tick::from_micros(20), Tick::from_micros(90))
            .unwrap();
        let beh = ScheduleBehavior::new(Schedule::full(b, c));
        assert_eq!(beh.steady_period(), Some(Tick::from_micros(180)));
        assert_eq!(IdleBehavior.steady_period(), None);
    }

    /// Pull batches the way the engine does (each refill asks from the
    /// previous batch's last op) until the stream reaches `until`.
    fn pull(beh: &mut ScheduleBehavior, mut after: Tick, until: Tick) -> Vec<Op> {
        let mut out: Vec<Op> = Vec::new();
        while out.last().is_none_or(|op| op.at() < until) {
            out.extend(beh.next_ops(after, &mut rng()));
            after = out.last().unwrap().at();
        }
        out
    }

    #[test]
    fn skip_shifts_the_op_stream_by_whole_periods() {
        // T_B = 60, T_C = 90 → H = 180 µs; with phase 40 the window
        // straddles every chunk boundary, so the split pattern must
        // repeat with H too
        let b =
            BeaconSeq::uniform(1, Tick::from_micros(60), Tick::from_micros(4), Tick::ZERO).unwrap();
        let c = ReceptionWindows::single(
            Tick::from_micros(30),
            Tick::from_micros(50),
            Tick::from_micros(90),
        )
        .unwrap();
        let sched = Schedule::full(b, c);
        let phase = Tick::from_micros(40);
        let mut full = ScheduleBehavior::with_phase(sched.clone(), phase);
        let h = full.steady_period().unwrap();
        let reference = pull(&mut full, Tick::ZERO, h * 8);

        let mut skipped = ScheduleBehavior::with_phase(sched, phase);
        let head = pull(&mut skipped, Tick::ZERO, h);
        assert_eq!(&reference[..head.len()], &head[..]);
        let dt = h * 3;
        skipped.skip(dt);
        let last = head.last().unwrap().at();
        let tail = pull(&mut skipped, last + dt, h * 6);
        let expect: Vec<Op> = reference
            .iter()
            .copied()
            .filter(|op| op.at() > last + dt)
            .take(tail.len())
            .collect();
        assert_eq!(tail, expect);
    }

    #[test]
    fn idle_behavior_is_idle() {
        let mut b = IdleBehavior;
        assert!(b.next_ops(Tick::ZERO, &mut rng()).is_empty());
        assert!(b.on_reception(Tick::ZERO, 0, 0, &mut rng()).is_empty());
    }
}
