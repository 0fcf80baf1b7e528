//! Steady-state fast-forward: skip whole joint periods of a cohort that
//! can discover nothing new.
//!
//! Lemma 4.1 of the paper rests on one fact: periodic schedules repeat
//! every relative offset within lcm(T_B, T_C). The exact engine uses it to
//! bound its distinct-image budget; this module uses it to stop simulating
//! repetitions. When every node's behaviour reports an exact period
//! ([`nd_sim::Behavior::steady_period`]), the cohort as a whole repeats
//! with their lcm `H` — provided nothing non-periodic is left:
//!
//! * no fault injection (a drop probability or lossy link draws from the
//!   RNG streams, which do not repeat);
//! * no churn still pending (join and leave instants are absolute);
//! * the horizon spans at least four periods, so a skip can pay off.
//!
//! Once the last join and leave have settled, the channel is a pure
//! function of the repeating op streams: collisions, half-duplex blanking
//! and overlap geometry only compare instants relative to each other, and
//! discovery state feeds back only through *first* contacts (cluster
//! completion). So if one whole period passes without a first contact, the
//! next period replays it exactly — same receptions, same losses, same
//! event count — and so does every period after it. The engine then jumps
//! `k` periods at once: it shifts every pending event, packet end,
//! transmission record, listen window and behaviour cursor by `k·H`, adds
//! `k` times the last period's counter deltas, and simulates the final
//! period plus the partial remainder normally, so the horizon cut is
//! handled by the ordinary loop. The report is field-identical to the full
//! simulation; the fast-forward-vs-full equivalence suite pins it.
//!
//! Checkpoints sit `H` apart. The first one waits one period after the
//! last join — the joiner's first period is not yet a full repetition —
//! and two after the last leave, because a departed node's last emitted
//! batch (up to two emission chunks) still fires as stale, counted events.

use nd_core::time::Tick;
use nd_sim::{DeviceStats, PacketCounters};

/// The counters a checkpoint snapshots: everything the report
/// accumulates, plus the discovery progress that decides a skip.
struct Tally {
    /// First contacts (ordered pairs discovered) so far.
    first_contacts: u64,
    /// Events handled so far.
    events: u64,
    packets: PacketCounters,
    /// Per node: `[tx_time, rx_time, n_tx, n_rx_windows, n_received]`.
    stats: Vec<[u64; 5]>,
}

impl Tally {
    fn take(
        first_contacts: u64,
        events: u64,
        packets: &PacketCounters,
        stats: &[DeviceStats],
    ) -> Self {
        Tally {
            first_contacts,
            events,
            packets: packets.clone(),
            stats: stats
                .iter()
                .map(|s| {
                    [
                        s.tx_time.0,
                        s.rx_time.0,
                        s.n_tx,
                        s.n_rx_windows,
                        s.n_received,
                    ]
                })
                .collect(),
        }
    }
}

/// A run's fast-forward plan and progress.
pub(crate) struct FastForward {
    /// The cohort's joint period `H`.
    period: Tick,
    /// The next checkpoint instant (`Tick::MAX` once no skip can follow).
    pub next: Tick,
    t_end: Tick,
    /// Counters at the previous checkpoint, if one was taken.
    last: Option<Tally>,
    /// Whole periods skipped (0 or the one jump's `k`).
    pub periods_skipped: u64,
    /// Events the skipped periods would have handled.
    pub events_skipped: u64,
}

/// What a checkpoint decided.
pub(crate) enum Verdict {
    /// Keep simulating.
    Continue,
    /// Jump this many ticks: the caller shifts its state, the counters
    /// have been advanced already.
    Skip(Tick),
}

impl FastForward {
    /// The plan for a run, or `None` when the cohort is ineligible.
    /// `periods` yields every node's steady period, `churn` every join
    /// and leave instant tagged `true` for leaves.
    pub fn plan(
        periods: impl IntoIterator<Item = Option<Tick>>,
        churn: impl IntoIterator<Item = (Tick, bool)>,
        faults: bool,
        t_end: Tick,
    ) -> Option<Self> {
        if faults {
            return None;
        }
        let mut period = Tick(1);
        for p in periods {
            period = period.checked_lcm(p?)?;
        }
        let mut first = period;
        for (at, leave) in churn {
            let wait = if leave {
                period.0.checked_mul(2)?
            } else {
                period.0
            };
            first = first.max(at.checked_add(Tick(wait))?);
        }
        // a skip needs two checkpoints and two more periods after them
        let needed = first.checked_add(Tick(period.0.checked_mul(3)?))?;
        if t_end.0 < period.0.checked_mul(4)? || t_end < needed {
            return None;
        }
        Some(FastForward {
            period,
            next: first,
            t_end,
            last: None,
            periods_skipped: 0,
            events_skipped: 0,
        })
    }

    /// Take the checkpoint at [`FastForward::next`] (every event before it
    /// handled) and decide. On a skip, `packets` and `stats` are advanced
    /// by `k` periods' worth of the last period's deltas here.
    pub fn checkpoint(
        &mut self,
        first_contacts: u64,
        events: u64,
        packets: &mut PacketCounters,
        stats: &mut [DeviceStats],
    ) -> Verdict {
        let at = self.next;
        let periods_left = (self.t_end - at) / self.period;
        if periods_left < 2 {
            self.next = Tick::MAX; // no room for a skip any more
            return Verdict::Continue;
        }
        let cur = Tally::take(first_contacts, events, packets, stats);
        let prev = match self.last.take() {
            Some(prev) if prev.first_contacts == cur.first_contacts => prev,
            _ => {
                self.last = Some(cur);
                self.next = at + self.period;
                return Verdict::Continue;
            }
        };
        let k = periods_left - 1;
        let add = |now: u64, before: u64| now + k * (now - before);
        let p = &prev.packets;
        *packets = PacketCounters {
            sent: add(cur.packets.sent, p.sent),
            received: add(cur.packets.received, p.received),
            lost_collision: add(cur.packets.lost_collision, p.lost_collision),
            lost_self_blocking: add(cur.packets.lost_self_blocking, p.lost_self_blocking),
            lost_fault: add(cur.packets.lost_fault, p.lost_fault),
        };
        for ((s, now), before) in stats.iter_mut().zip(&cur.stats).zip(&prev.stats) {
            s.tx_time = Tick(add(now[0], before[0]));
            s.rx_time = Tick(add(now[1], before[1]));
            s.n_tx = add(now[2], before[2]);
            s.n_rx_windows = add(now[3], before[3]);
            s.n_received = add(now[4], before[4]);
        }
        self.periods_skipped = k;
        self.events_skipped = k * (cur.events - prev.events);
        self.next = Tick::MAX; // what remains is under two periods
        Verdict::Skip(self.period * k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(periods: &[Option<u64>], churn: &[(u64, bool)], t_end: u64) -> Option<FastForward> {
        FastForward::plan(
            periods.iter().map(|p| p.map(Tick)),
            churn.iter().map(|&(at, leave)| (Tick(at), leave)),
            false,
            Tick(t_end),
        )
    }

    #[test]
    fn eligibility() {
        // joint period lcm(4, 6) = 12; first checkpoint one period in
        let p = plan(&[Some(4), Some(6)], &[(0, false)], 48).unwrap();
        assert_eq!((p.period, p.next), (Tick(12), Tick(12)));
        // any node without a period, faults, or a short horizon: off
        assert!(plan(&[Some(4), None], &[], 1000).is_none());
        assert!(plan(&[Some(12)], &[], 47).is_none());
        assert!(FastForward::plan([Some(Tick(4))], [], true, Tick(1000)).is_none());
        // churn pushes the first checkpoint: +H after a join, +2H after a
        // leave; too late for two checkpoints plus two periods → off
        assert_eq!(
            plan(&[Some(10)], &[(25, false)], 100).unwrap().next,
            Tick(35)
        );
        assert_eq!(
            plan(&[Some(10)], &[(25, true)], 100).unwrap().next,
            Tick(45)
        );
        assert!(plan(&[Some(10)], &[(75, false)], 100).is_none());
        // periods whose lcm overflows are ineligible, not a panic
        assert!(plan(&[Some(u64::MAX - 1), Some(u64::MAX - 2)], &[], u64::MAX).is_none());
    }

    #[test]
    fn quiet_period_skips_all_but_the_last_full_period() {
        let mut ff = plan(&[Some(10)], &[], 105).unwrap();
        let mut packets = PacketCounters::default();
        let mut stats = vec![DeviceStats::default()];
        // checkpoint at 10: nothing to compare against yet
        packets.sent = 3;
        stats[0].n_tx = 3;
        assert!(matches!(
            ff.checkpoint(1, 7, &mut packets, &mut stats),
            Verdict::Continue
        ));
        assert_eq!(ff.next, Tick(20));
        // checkpoint at 20: a first contact happened → keep going
        packets.sent = 6;
        stats[0].n_tx = 6;
        assert!(matches!(
            ff.checkpoint(2, 14, &mut packets, &mut stats),
            Verdict::Continue
        ));
        // checkpoint at 30: quiet period (+3 sent, +7 events); 7 whole
        // periods remain, so 6 are skipped and the last one simulated
        packets.sent = 9;
        stats[0].n_tx = 9;
        stats[0].tx_time = Tick(90);
        let Verdict::Skip(dt) = ff.checkpoint(2, 21, &mut packets, &mut stats) else {
            panic!("a quiet period must skip");
        };
        assert_eq!(dt, Tick(60));
        assert_eq!((ff.periods_skipped, ff.events_skipped), (6, 42));
        assert_eq!(packets.sent, 9 + 6 * 3);
        assert_eq!(stats[0].n_tx, 9 + 6 * 3);
        // tx_time went 0 → 90 over the quiet period
        assert_eq!(stats[0].tx_time, Tick(90 + 6 * 90));
        assert_eq!(ff.next, Tick::MAX);
    }
}
