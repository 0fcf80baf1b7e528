//! The event core: the timing-wheel queue and the logical clock.
//!
//! Every state change of the network simulation is an [`Event`] popped off
//! the [`EventQueue`] in `(time, sequence)` order. The sequence number
//! breaks ties deterministically — two events scheduled for the same
//! instant fire in the order they were pushed — which is what makes whole
//! runs reproducible byte for byte regardless of the host or of how many
//! sweeps run in sibling threads.
//!
//! The queue is a binary heap for small cohorts and the hierarchical
//! [`crate::wheel::TimingWheel`] (O(1) amortized at netsim's dense,
//! short-horizon event mix) from [`WHEEL_MIN_NODES`] nodes up
//! ([`EventQueue::for_cohort`]). The two pop byte-identical event
//! sequences, so the choice only moves speed; the equivalence suite
//! replays whole cohorts on both to hold them to that.
//!
//! Popping no longer advances the clock implicitly: the engine calls
//! [`EventQueue::advance`] for events it *handles*, so events it discards
//! (a completed cluster's tail) leave the clock — and therefore the
//! reported elapsed time — exactly where the per-shard runs put it.

use crate::wheel::TimingWheel;
use nd_core::time::Tick;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What an event does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// Node `.0` joins the network (becomes audible and starts its
    /// protocol).
    Join(usize),
    /// Node `.0` leaves the network (stops transmitting and listening).
    Leave(usize),
    /// Refill node `.0`'s proactive schedule (a once-per-batch tick).
    Wake(usize),
    /// Node `node` starts transmitting one beacon at the event instant
    /// (airtime is the radio's ω). Like [`EventKind::RxStart`], buffered
    /// nowhere: the behaviour's ops become events directly, and the wake
    /// that used to shepherd each op through the node's buffer survives
    /// only as a once-per-batch refill tick.
    TxStart {
        /// The transmitting node.
        node: u32,
        /// Beacon payload.
        payload: u64,
    },
    /// Node `node`'s scheduled listening window `[event instant, end)`
    /// opens. Listening needs no per-node bookkeeping at its start — only
    /// membership in the cluster timeline by the time a packet asks — so
    /// windows ride the queue directly instead of passing through the
    /// node's op buffer and a wake dispatch.
    RxStart {
        /// The listening node.
        node: u32,
        /// Window close instant.
        end: Tick,
    },
}

/// A scheduled event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event {
    /// Fire instant.
    pub at: Tick,
    /// Push order; the deterministic tie-break at equal instants.
    pub seq: u64,
    /// The action.
    pub kind: EventKind,
}

enum QueueImpl {
    Wheel(TimingWheel<EventKind>),
    Heap(BinaryHeap<Reverse<Event>>),
}

/// Min-ordered event queue plus the simulation's logical clock.
///
/// The clock advances via [`EventQueue::advance`] as the engine handles
/// events; pushing an event in the past is a logic error
/// (debug-asserted), so time is monotone by construction.
pub(crate) struct EventQueue {
    q: QueueImpl,
    seq: u64,
    now: Tick,
}

/// Cohorts of at least this many nodes run on the timing wheel, smaller
/// ones on the binary heap.
///
/// Set from the crossover on one event stream (heap time ÷ wheel time):
/// 0.59–0.62 at N = 2, 0.71–0.78 at N = 4, 0.77–0.78 at N = 8, 0.94–0.95
/// at N = 16 and 1.04–1.11 at N = 32, for optimal-slotless and Disco
/// cohorts. A small cohort keeps only a handful of events pending, so
/// the heap's O(log n) is a few comparisons while the wheel pays for
/// slot bookkeeping and cascades on every advance.
pub(crate) const WHEEL_MIN_NODES: usize = 16;

impl EventQueue {
    /// The queue for a cohort of `nodes` nodes: the binary heap below
    /// [`WHEEL_MIN_NODES`], the timing wheel from there up.
    pub fn for_cohort(nodes: usize) -> Self {
        Self::with_wheel(nodes >= WHEEL_MIN_NODES)
    }

    /// The timing wheel (`true`) or the binary heap (`false`).
    pub fn with_wheel(wheel: bool) -> Self {
        EventQueue {
            q: if wheel {
                QueueImpl::Wheel(TimingWheel::new())
            } else {
                QueueImpl::Heap(BinaryHeap::new())
            },
            seq: 0,
            now: Tick::ZERO,
        }
    }

    /// Schedule `kind` at `at` (≥ the current logical time).
    pub fn push(&mut self, at: Tick, kind: EventKind) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        match &mut self.q {
            QueueImpl::Wheel(w) => w.push(at.0, self.seq, kind),
            QueueImpl::Heap(h) => h.push(Reverse(Event {
                at,
                seq: self.seq,
                kind,
            })),
        }
        self.seq += 1;
    }

    /// Consume the next sequence number without scheduling anything.
    ///
    /// The engine keeps constant-airtime transmission ends in a FIFO
    /// beside the queue instead of scheduling each one; reserving a
    /// sequence number here keeps their tie-break order — and every
    /// later push's — exactly what scheduling them would have produced.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// The `(at, seq)` key of the next event, without consuming it.
    pub fn peek_key(&mut self) -> Option<(Tick, u64)> {
        match &mut self.q {
            QueueImpl::Wheel(w) => w.peek_key().map(|(at, seq)| (Tick(at), seq)),
            QueueImpl::Heap(h) => h.peek().map(|Reverse(ev)| (ev.at, ev.seq)),
        }
    }

    /// Pop the next event. Does **not** move the logical clock — the
    /// engine advances it only for events it actually handles.
    pub fn pop(&mut self) -> Option<Event> {
        match &mut self.q {
            QueueImpl::Wheel(w) => w.pop().map(|e| Event {
                at: Tick(e.at),
                seq: e.seq,
                kind: e.payload,
            }),
            QueueImpl::Heap(h) => h.pop().map(|Reverse(ev)| ev),
        }
    }

    /// Advance the logical clock to `at` (monotone).
    pub fn advance(&mut self, at: Tick) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
    }

    /// The logical clock: the instant of the last handled event.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Move every pending event — and the clock — `dt` later, keeping
    /// sequence numbers, so the pop order is unchanged. This is the
    /// engine's steady-state fast-forward; churn events are absolute
    /// instants and must all have fired before it.
    pub fn shift_all(&mut self, dt: Tick) {
        let shift = |kind: &mut EventKind| {
            debug_assert!(
                !matches!(kind, EventKind::Join(_) | EventKind::Leave(_)),
                "churn events never shift"
            );
            if let EventKind::RxStart { end, .. } = kind {
                *end += dt;
            }
        };
        match &mut self.q {
            QueueImpl::Wheel(w) => w.shift_all(dt.0, shift),
            QueueImpl::Heap(h) => {
                *h = std::mem::take(h)
                    .into_iter()
                    .map(|Reverse(mut ev)| {
                        ev.at += dt;
                        shift(&mut ev.kind);
                        Reverse(ev)
                    })
                    .collect();
            }
        }
        self.now += dt;
    }

    /// Pending events (the depth the profiling gauge reports).
    pub fn len(&self) -> usize {
        match &self.q {
            QueueImpl::Wheel(w) => w.len(),
            QueueImpl::Heap(h) => h.len(),
        }
    }

    /// Wheel profiling counters `(depth_max, cascades, overflow_max)`;
    /// `None` on the heap path.
    pub fn wheel_stats(&self) -> Option<(usize, u64, usize)> {
        match &self.q {
            QueueImpl::Wheel(w) => Some((w.depth_max(), w.cascades(), w.overflow_max())),
            QueueImpl::Heap(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::with_wheel(true);
        q.push(Tick(30), EventKind::Wake(0));
        q.push(Tick(10), EventKind::Wake(1));
        q.push(Tick(20), EventKind::Wake(2));
        let order: Vec<Tick> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![Tick(10), Tick(20), Tick(30)]);
    }

    #[test]
    fn equal_instants_fire_in_push_order() {
        let mut q = EventQueue::with_wheel(true);
        q.push(Tick(5), EventKind::Wake(9));
        q.push(Tick(5), EventKind::Join(1));
        q.push(Tick(5), EventKind::Leave(2));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Wake(9), EventKind::Join(1), EventKind::Leave(2)]
        );
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::with_wheel(true);
        q.push(Tick(10), EventKind::Wake(0));
        q.push(Tick(10), EventKind::Wake(1));
        q.push(Tick(40), EventKind::Wake(2));
        assert_eq!(q.now(), Tick::ZERO);
        let ev = q.pop().unwrap();
        q.advance(ev.at);
        assert_eq!(q.now(), Tick(10));
        // pushing at the current instant is allowed (same-time cascades)
        q.push(Tick(10), EventKind::Wake(3));
        q.pop();
        q.pop();
        let ev = q.pop().unwrap();
        q.advance(ev.at);
        assert_eq!(q.now(), Tick(40));
        assert!(q.pop().is_none());
    }

    #[test]
    fn shift_all_moves_events_and_clock_on_both_queues() {
        for mut q in [EventQueue::with_wheel(true), EventQueue::with_wheel(false)] {
            q.push(Tick(10), EventKind::Wake(0));
            q.push(
                Tick(30),
                EventKind::RxStart {
                    node: 1,
                    end: Tick(40),
                },
            );
            q.push(Tick(30), EventKind::Wake(2));
            let ev = q.pop().unwrap();
            q.advance(ev.at);
            q.shift_all(Tick(1000));
            assert_eq!(q.now(), Tick(1010));
            let rest: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(
                rest,
                vec![
                    Event {
                        at: Tick(1030),
                        seq: 1,
                        kind: EventKind::RxStart {
                            node: 1,
                            end: Tick(1040)
                        }
                    },
                    Event {
                        at: Tick(1030),
                        seq: 2,
                        kind: EventKind::Wake(2)
                    },
                ]
            );
        }
    }

    /// Identical push sequences → byte-identical pop sequences on both
    /// queue implementations, across every slot scale.
    #[test]
    fn wheel_and_heap_pop_identically() {
        let mut wheel = EventQueue::with_wheel(true);
        let mut heap = EventQueue::with_wheel(false);
        let mut state = 42u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut pending = 0usize;
        for round in 0..4_000 {
            let at = Tick(now + next() % (1 << (10 + (round % 4) * 8)));
            let kind = match next() % 4 {
                0 => EventKind::Join(round),
                1 => EventKind::Leave(round),
                2 => EventKind::Wake(round),
                _ => EventKind::RxStart {
                    node: round as u32,
                    end: Tick(round as u64),
                },
            };
            wheel.push(at, kind);
            heap.push(at, kind);
            pending += 1;
            if next() % 3 == 0 && pending > 1 {
                let a = wheel.pop().unwrap();
                let b = heap.pop().unwrap();
                assert_eq!(a, b);
                wheel.advance(a.at);
                heap.advance(b.at);
                now = a.at.0;
                pending -= 1;
            }
        }
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
        assert!(wheel.wheel_stats().is_some());
        assert!(heap.wheel_stats().is_none());
    }
}
