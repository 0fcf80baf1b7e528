//! A hierarchical timing wheel: the O(1)-amortized event queue behind the
//! netsim engine.
//!
//! A binary heap costs O(log n) per operation and scatters its comparisons
//! across the whole backing array; at millions of pending events that is
//! the simulator's dominant cost. Discrete-event network simulation has a
//! much friendlier access pattern than the general priority queue: time is
//! monotone (events are only scheduled at or after the current instant)
//! and the overwhelming majority of events land within a few schedule
//! periods of *now*. A classic hierarchical timing wheel (Varghese &
//! Lauck) exploits exactly that shape:
//!
//! * [`LEVELS`] wheels of [`SLOTS`] slots each; level 0 slots are
//!   `2^`[`W0_BITS`] ticks wide and each level above is [`SLOTS`]× wider,
//!   so the top level spans ≈ 137 simulated seconds at nanosecond ticks;
//! * a push indexes the lowest level whose window contains the event —
//!   one shift, one mask, one `Vec::push`;
//! * popping drains the earliest non-empty slot (found via a per-level
//!   occupancy bitmask and `trailing_zeros`) into a sorted *current*
//!   buffer; far-future slots **cascade** down a level when the clock
//!   reaches them;
//! * events beyond the top window (rare: far-future churn leaves) go to a
//!   binary-heap *overflow* that feeds back into the wheel as the cursors
//!   advance.
//!
//! Ordering is **identical to the heap it replaces**: entries carry a
//! `(time, seq)` key, slots sort by it on drain, and pushes that land in
//! the already-open current window insert in key order. The engine's
//! wheel-vs-heap equivalence suite pins this down event for event.
//!
//! The wheel is generic over its payload so microbenches and tests can
//! drive it directly; the engine instantiates it with its event kind.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Number of wheel levels.
pub const LEVELS: usize = 4;
/// Slots per level (fixed at 64 so occupancy fits one `u64` bitmask).
pub const SLOTS: usize = 64;
/// log₂ of the level-0 slot width in ticks (8192 ns ≈ 8 µs at nanosecond
/// resolution — a fraction of any schedule period, so same-slot sorting
/// stays cheap).
pub const W0_BITS: u32 = 13;
/// Each level's slots are `SLOTS` (2⁶) times wider than the level below.
const LEVEL_SHIFT: u32 = 6;

const fn width_bits(level: usize) -> u32 {
    W0_BITS + LEVEL_SHIFT * level as u32
}

/// One scheduled entry: the `(at, seq)` ordering key plus the payload.
#[derive(Clone, Copy, Debug)]
pub struct Entry<T> {
    /// Fire time in ticks.
    pub at: u64,
    /// Tie-break sequence number (unique per queue, assigned by pushes).
    pub seq: u64,
    /// The scheduled payload.
    pub payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Overflow wrapper ordered by `(at, seq)` so a `BinaryHeap<Reverse<_>>`
/// yields the earliest entry first.
struct OrdEntry<T>(Entry<T>);

impl<T> PartialEq for OrdEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for OrdEntry<T> {}
impl<T> PartialOrd for OrdEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OrdEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

struct Level<T> {
    /// Absolute index of the slot the cursor sits on; every occupied slot
    /// of this level lies in `[cursor, cursor + SLOTS)`.
    cursor: u64,
    /// Bit `abs_slot % SLOTS` set ⇔ that slot holds entries.
    occupied: u64,
    slots: Vec<Vec<Entry<T>>>,
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            cursor: 0,
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    /// The earliest occupied absolute slot, if any.
    fn first_occupied(&self) -> Option<u64> {
        if self.occupied == 0 {
            return None;
        }
        let rot = self
            .occupied
            .rotate_right((self.cursor % SLOTS as u64) as u32);
        Some(self.cursor + rot.trailing_zeros() as u64)
    }
}

/// The hierarchical timing wheel. See the module docs for the design;
/// entries pop in strict `(at, seq)` order.
pub struct TimingWheel<T> {
    levels: Vec<Level<T>>,
    /// The sorted drain buffer for the slot currently being consumed.
    current: VecDeque<Entry<T>>,
    /// End (exclusive) of the drained window: pushes below this insert
    /// into `current` directly, keeping it totally ordered.
    current_end: u64,
    /// Entries beyond the top level's window.
    overflow: BinaryHeap<Reverse<OrdEntry<T>>>,
    /// Cascade scratch: swapped with a coarse slot before redistributing
    /// so slot vectors keep their capacity (no steady-state allocation).
    scratch: Vec<Entry<T>>,
    len: usize,
    // profiling counters (free to keep; surfaced as nd-obs gauges)
    depth_max: usize,
    cascades: u64,
    overflow_max: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel anchored at time 0.
    pub fn new() -> Self {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            current: VecDeque::new(),
            current_end: 0,
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            len: 0,
            depth_max: 0,
            cascades: 0,
            overflow_max: 0,
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of pending entries over the wheel's lifetime.
    pub fn depth_max(&self) -> usize {
        self.depth_max
    }

    /// Number of slot cascades performed (a far-future slot redistributed
    /// into finer levels as the clock reached it).
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// High-water mark of the far-future overflow heap.
    pub fn overflow_max(&self) -> usize {
        self.overflow_max
    }

    /// Schedule `payload` at `(at, seq)`. `seq` must be unique per wheel
    /// (the caller's push counter); `(at, seq)` is the pop order. Pushing
    /// before an already-drained window is a logic error — the engine's
    /// monotone clock guarantees it never happens — and debug-asserts.
    pub fn push(&mut self, at: u64, seq: u64, payload: T) {
        let e = Entry { at, seq, payload };
        if at < self.current_end {
            // lands inside the already-open window: insert sorted
            let pos = self.current.partition_point(|x| x.key() <= e.key());
            debug_assert!(
                pos > 0 || self.current.front().is_none_or(|f| f.key() > e.key()),
                "push into a drained window"
            );
            self.current.insert(pos, e);
        } else {
            self.place(e);
        }
        self.len += 1;
        self.depth_max = self.depth_max.max(self.len);
    }

    /// File an entry into the lowest level whose window covers it, or the
    /// overflow heap beyond the top window.
    fn place(&mut self, e: Entry<T>) {
        for (l, level) in self.levels.iter_mut().enumerate() {
            let slot = e.at >> width_bits(l);
            if slot < level.cursor + SLOTS as u64 {
                debug_assert!(slot >= level.cursor, "entry behind the level cursor");
                level.slots[(slot % SLOTS as u64) as usize].push(e);
                level.occupied |= 1 << (slot % SLOTS as u64);
                return;
            }
        }
        self.overflow.push(Reverse(OrdEntry(e)));
        self.overflow_max = self.overflow_max.max(self.overflow.len());
    }

    /// Move overflow entries that now fit the top window into the wheel.
    fn pull_overflow(&mut self) {
        let top_end = (self.levels[LEVELS - 1].cursor + SLOTS as u64) << width_bits(LEVELS - 1);
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.0.at >= top_end {
                break;
            }
            let Reverse(OrdEntry(e)) = self.overflow.pop().expect("peeked");
            self.place(e);
        }
    }

    /// Refill `current` from the earliest pending slot, cascading coarser
    /// levels as needed. Returns `false` when the wheel is empty.
    fn refill(&mut self) -> bool {
        loop {
            self.pull_overflow();
            let mut best: Option<(usize, u64, u64)> = None; // (level, abs_slot, start)
            for l in 0..LEVELS {
                if let Some(slot) = self.levels[l].first_occupied() {
                    let start = slot << width_bits(l);
                    if best.is_none_or(|(_, _, s)| start <= s) {
                        best = Some((l, slot, start));
                    }
                }
            }
            let Some((l, slot, start)) = best else {
                if let Some(Reverse(head)) = self.overflow.peek() {
                    let at = head.0.at;
                    for (j, level) in self.levels.iter_mut().enumerate() {
                        level.cursor = level.cursor.max(at >> width_bits(j));
                    }
                    continue;
                }
                return false;
            };
            let level = &mut self.levels[l];
            let entries = &mut level.slots[(slot % SLOTS as u64) as usize];
            level.occupied &= !(1 << (slot % SLOTS as u64));
            level.cursor = slot;
            if l == 0 {
                entries.sort_unstable_by_key(Entry::key);
                self.current.extend(entries.drain(..));
                self.current_end = (slot + 1) << W0_BITS;
                return true;
            }
            let mut entries = std::mem::replace(entries, std::mem::take(&mut self.scratch));
            for (j, finer) in self.levels.iter_mut().enumerate().take(l) {
                finer.cursor = finer.cursor.max(start >> width_bits(j));
            }
            self.cascades += 1;
            for e in entries.drain(..) {
                self.place(e);
            }
            self.scratch = entries;
        }
    }

    /// Pop the earliest entry in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        let e = self.current.pop_front().expect("refill filled current");
        self.len -= 1;
        Some(e)
    }

    /// Move every pending entry `dt` ticks later, rewriting payloads with
    /// `f` and keeping each `seq` — so the pop order is unchanged. The
    /// wheel is drained and refiled from an empty one (one O(len) pass);
    /// the profiling counters carry over.
    pub fn shift_all(&mut self, dt: u64, mut f: impl FnMut(&mut T)) {
        let mut pending = Vec::with_capacity(self.len);
        while let Some(e) = self.pop() {
            pending.push(e);
        }
        let old = std::mem::take(self);
        for mut e in pending {
            f(&mut e.payload);
            self.push(e.at + dt, e.seq, e.payload);
        }
        self.depth_max = self.depth_max.max(old.depth_max);
        self.cascades += old.cascades;
        self.overflow_max = self.overflow_max.max(old.overflow_max);
    }

    /// The `(at, seq)` key the next [`TimingWheel::pop`] will return,
    /// without consuming it. `&mut` because peeking may have to drain a
    /// slot into the current buffer first.
    pub fn peek_key(&mut self) -> Option<(u64, u64)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        self.current.front().map(Entry::key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pop everything, asserting internal `len` bookkeeping.
    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.at, e.seq));
        }
        assert_eq!(w.len(), 0);
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        for (seq, at) in [900u64, 5, 5, 100_000, 77, 5].into_iter().enumerate() {
            w.push(at, seq as u64, 0);
        }
        assert_eq!(w.len(), 6);
        assert_eq!(
            drain(&mut w),
            vec![(5, 1), (5, 2), (5, 5), (77, 4), (900, 0), (100_000, 3)]
        );
    }

    #[test]
    fn far_future_entries_cascade_back_down() {
        let mut w = TimingWheel::new();
        // one entry per level scale plus one beyond the top window
        let ats = [
            1u64,
            1 << (W0_BITS + 2),
            1 << (W0_BITS + 10),
            1 << (W0_BITS + 16),
            1 << (W0_BITS + 22),
            1 << 40, // beyond the top window → overflow
        ];
        for (seq, &at) in ats.iter().enumerate() {
            w.push(at, seq as u64, 0);
        }
        assert!(w.overflow_max() >= 1, "deep future goes to overflow");
        let popped = drain(&mut w);
        let times: Vec<u64> = popped.iter().map(|&(at, _)| at).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert!(w.cascades() > 0, "coarse slots cascaded");
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        // emulate the engine: after popping t, push new entries ≥ t
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        let push = |w: &mut TimingWheel<u32>, at: u64, seq: &mut u64| {
            w.push(at, *seq, 0);
            *seq += 1;
        };
        push(&mut w, 10, &mut seq);
        push(&mut w, 50_000, &mut seq);
        let e = w.pop().unwrap();
        assert_eq!(e.at, 10);
        // same-instant cascade lands in the open window, ahead of 50 000
        push(&mut w, 10, &mut seq);
        push(&mut w, 12, &mut seq);
        assert_eq!(w.pop().unwrap().at, 10);
        assert_eq!(w.pop().unwrap().at, 12);
        assert_eq!(w.pop().unwrap().at, 50_000);
        assert!(w.pop().is_none());
    }

    #[test]
    fn shift_all_keeps_order_and_moves_times() {
        let mut w = TimingWheel::new();
        for (seq, at) in [900u64, 5, 5, 100_000, 77].into_iter().enumerate() {
            w.push(at, seq as u64, at as u32);
        }
        assert_eq!(w.pop().unwrap().at, 5);
        let dt = 1 << 30; // far enough to land in a coarse level
        w.shift_all(dt, |p| *p += 1);
        assert_eq!(w.len(), 4);
        // a push after the shift interleaves by (at, seq) as usual
        w.push(dt + 77, 9, 0);
        let mut got = Vec::new();
        while let Some(e) = w.pop() {
            got.push((e.at - dt, e.seq, e.payload));
        }
        assert_eq!(
            got,
            vec![
                (5, 2, 6),
                (77, 4, 78),
                (77, 9, 0),
                (900, 0, 901),
                (100_000, 3, 100_001)
            ]
        );
    }

    #[test]
    fn matches_reference_heap_on_dense_mix() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // deterministic pseudo-random workload, no external RNG needed
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..5_000 {
            // 2 pushes per pop keeps the queue growing then draining
            for _ in 0..2 {
                let horizon = match next() % 4 {
                    0 => 1 << 6,     // same-slot
                    1 => 1 << 14,    // next level-0 slots
                    2 => 1 << 22,    // mid levels
                    _ => 1u64 << 36, // overflow territory
                };
                let at = now + next() % horizon;
                wheel.push(at, seq, 0);
                heap.push(Reverse((at, seq)));
                seq += 1;
            }
            let e = wheel.pop().expect("non-empty");
            let Reverse(expect) = heap.pop().expect("non-empty");
            assert_eq!((e.at, e.seq), expect);
            now = e.at;
        }
        // full drain must agree too
        while let Some(e) = wheel.pop() {
            let Reverse(expect) = heap.pop().expect("heap drains in lockstep");
            assert_eq!((e.at, e.seq), expect);
        }
        assert!(heap.is_empty());
        assert!(wheel.depth_max() > 0);
    }
}
