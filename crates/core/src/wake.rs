//! Per-PE wake bookkeeping for the run loop.
//!
//! Each PE carries its earliest scheduled tick (`u64::MAX` = none: only
//! a message delivery can make it runnable again). A tick's [`Activity`]
//! schedules the next one: `Active` at `now + 1`, `Blocked(t)` at `t`,
//! `Idle` never. A delivery pulls the PE's wake to the delivery cycle.
//!
//! The wakes sit in a tournament tree: leaf `size + p` holds PE `p`'s
//! wake (`size` is the PE count rounded up to a power of two, the padding
//! leaves never wake) and every inner node holds the minimum of its two
//! children, so the root is the earliest wake. [`WakeSet::tick_due`]
//! walks the tree left to right, descending only into subtrees whose
//! minimum is due, so the due PEs tick in ascending PE order — the
//! memory-port reservation order the golden digests pin — and each at
//! most once: its new wake lies in the future before the walk moves on.

use crate::pipeline::Activity;

pub(crate) struct WakeSet {
    /// The tournament tree; index 0 is unused, the root is 1.
    tree: Vec<u64>,
    /// Leaf offset: PE `p` is node `size + p`.
    size: usize,
    /// PEs with a scheduled wake.
    scheduled: u64,
}

impl WakeSet {
    /// `n` PEs, every one due at cycle 0.
    pub(crate) fn new(n: usize) -> Self {
        let size = n.max(1).next_power_of_two();
        let mut tree = vec![u64::MAX; 2 * size];
        tree[size..size + n].fill(0);
        for i in (1..size).rev() {
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
        WakeSet {
            tree,
            size,
            scheduled: n as u64,
        }
    }

    /// A message was delivered to `pe` at `now`: it ticks this cycle.
    #[inline]
    pub(crate) fn deliver(&mut self, pe: u16, now: u64) {
        let mut i = self.size + pe as usize;
        let leaf = self.tree[i];
        if now >= leaf {
            return;
        }
        if leaf == u64::MAX {
            self.scheduled += 1;
        }
        // A wake only moves earlier here, so each ancestor takes `now`
        // until one already holds something at least as early.
        self.tree[i] = now;
        while i > 1 {
            i >>= 1;
            if self.tree[i] <= now {
                break;
            }
            self.tree[i] = now;
        }
    }

    /// PEs with a scheduled wake — the host-side cost of the bookkeeping
    /// (`EngineReport::wake_heap_occupancy`).
    #[inline]
    pub(crate) fn occupancy(&self) -> u64 {
        self.scheduled
    }

    /// Ticks every PE due at `now` in ascending PE order, scheduling
    /// each from the [`Activity`] `tick` returns. Returns the number of
    /// ticks.
    ///
    /// A depth-first walk: a node whose minimum is due is entered, one
    /// that is not is skipped whole. Leaving a right child recomputes
    /// its parent, whose subtrees are then both final, so the tree is
    /// consistent again when the walk climbs out of the root.
    pub(crate) fn tick_due(&mut self, now: u64, mut tick: impl FnMut(u16) -> Activity) -> u64 {
        debug_assert!(
            self.tree[1] >= now,
            "a wake at {} was skipped",
            self.tree[1]
        );
        let mut ticks = 0;
        let mut i = 1;
        loop {
            if self.tree[i] <= now {
                if i < self.size {
                    i *= 2;
                    continue;
                }
                ticks += 1;
                let next = match tick((i - self.size) as u16) {
                    Activity::Active => now + 1,
                    Activity::Blocked(w) => w,
                    Activity::Idle => u64::MAX,
                };
                debug_assert!(next > now, "wake must be in the future");
                if next == u64::MAX {
                    self.scheduled -= 1;
                }
                self.tree[i] = next;
            }
            while i & 1 == 1 {
                i >>= 1;
                if i == 0 {
                    return ticks;
                }
                self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
            }
            i += 1;
        }
    }

    /// The earliest scheduled tick (`u64::MAX` = none).
    #[inline]
    pub(crate) fn next(&self) -> u64 {
        self.tree[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `now`, answering each tick from `plan` (PEs not listed
    /// return `Idle`), and returns the PEs ticked in order.
    fn drain(w: &mut WakeSet, now: u64, plan: &[(u16, Activity)]) -> Vec<u16> {
        let mut order = Vec::new();
        let ticks = w.tick_due(now, |p| {
            order.push(p);
            plan.iter()
                .find(|&&(q, _)| q == p)
                .map_or(Activity::Idle, |&(_, a)| a)
        });
        assert_eq!(ticks, order.len() as u64);
        order
    }

    #[test]
    fn starts_with_every_pe_due_at_zero() {
        let mut w = WakeSet::new(3);
        assert_eq!(w.next(), 0);
        assert_eq!(w.occupancy(), 3);
        assert_eq!(drain(&mut w, 0, &[]), vec![0, 1, 2]);
        assert_eq!(w.next(), u64::MAX);
        assert_eq!(w.occupancy(), 0);
    }

    #[test]
    fn mixed_sources_tick_in_ascending_pe_order() {
        let mut w = WakeSet::new(6);
        // At cycle 1, PEs 0 (Blocked(1)), 1 and 4 (Active) are due from
        // their ticks; deliveries add 2, 3 and 5.
        let plan = [
            (1, Activity::Active),
            (4, Activity::Active),
            (0, Activity::Blocked(1)),
        ];
        assert_eq!(drain(&mut w, 0, &plan), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(w.next(), 1);
        w.deliver(5, 1);
        w.deliver(3, 1);
        w.deliver(2, 1);
        let plan = [
            (3, Activity::Blocked(4)),
            (1, Activity::Active),
            (2, Activity::Blocked(3)),
        ];
        assert_eq!(drain(&mut w, 1, &plan), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(w.next(), 2);
        assert_eq!(drain(&mut w, 2, &[]), vec![1]);
        assert_eq!(w.next(), 3);
        w.deliver(0, 3);
        assert_eq!(drain(&mut w, 3, &[]), vec![0, 2]);
        assert_eq!(w.next(), 4);
        assert_eq!(drain(&mut w, 4, &[]), vec![3]);
        assert_eq!(w.next(), u64::MAX);
    }

    #[test]
    fn pe_pulled_ahead_of_its_wake_ticks_once() {
        let mut w = WakeSet::new(2);
        assert_eq!(drain(&mut w, 0, &[(0, Activity::Blocked(6))]), vec![0, 1]);
        // A delivery pulls PE 0 ahead of its Blocked(6) wake; that tick
        // returns Active, so PE 0 is due at 6 once, not twice.
        w.deliver(0, 5);
        assert_eq!(w.next(), 5);
        assert_eq!(drain(&mut w, 5, &[(0, Activity::Active)]), vec![0]);
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.next(), 6);
        w.deliver(1, 6);
        assert_eq!(drain(&mut w, 6, &[(0, Activity::Active)]), vec![0, 1]);
        assert_eq!(w.next(), 7);
        assert_eq!(drain(&mut w, 7, &[]), vec![0]);
        assert_eq!(w.next(), u64::MAX);
    }

    #[test]
    fn delivery_to_a_due_pe_does_not_schedule_it_twice() {
        let mut w = WakeSet::new(3);
        let plan = [(1, Activity::Active), (2, Activity::Blocked(4))];
        drain(&mut w, 0, &plan);
        // PE 1 is already due at 1; PE 2 at 4.
        w.deliver(1, 1);
        w.deliver(1, 1);
        assert_eq!(w.occupancy(), 2, "no entry added for a due PE");
        assert_eq!(drain(&mut w, 1, &[]), vec![1]);
        w.deliver(2, 4);
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.next(), 4);
        assert_eq!(drain(&mut w, 4, &[]), vec![2]);
    }

    #[test]
    fn blocked_forever_and_idle_leave_nothing_scheduled() {
        let mut w = WakeSet::new(2);
        let plan = [(0, Activity::Blocked(u64::MAX)), (1, Activity::Idle)];
        assert_eq!(drain(&mut w, 0, &plan), vec![0, 1]);
        assert_eq!(w.occupancy(), 0);
        assert_eq!(w.next(), u64::MAX);
        // Only a delivery brings them back.
        w.deliver(1, 9);
        assert_eq!(w.next(), 9);
        assert_eq!(drain(&mut w, 9, &[]), vec![1]);
    }

    #[test]
    fn rescheduled_pe_keeps_only_its_latest_wake() {
        let mut w = WakeSet::new(2);
        let plan = [(0, Activity::Blocked(10)), (1, Activity::Blocked(20))];
        drain(&mut w, 0, &plan);
        // Pull PE 0 earlier; its tick then reschedules it to 30, and the
        // wake at 10 it replaced must not resurface.
        w.deliver(0, 3);
        assert_eq!(drain(&mut w, 3, &[(0, Activity::Blocked(30))]), vec![0]);
        assert_eq!(w.occupancy(), 2);
        assert_eq!(w.next(), 20);
        assert_eq!(drain(&mut w, 20, &[]), vec![1]);
        assert_eq!(w.next(), 30);
        assert_eq!(drain(&mut w, 30, &[]), vec![0]);
        assert_eq!(w.next(), u64::MAX);
    }

    /// The SplitMix64 finaliser: a stateless source of seeded choices.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Differential test against the specification the tree implements:
    /// every PE whose wake equals `now` ticks once, in ascending order.
    #[test]
    fn matches_the_naive_model_under_random_activity() {
        for n in [1usize, 2, 3, 8, 9, 128, 130] {
            for seed in 0..8u64 {
                let mut w = WakeSet::new(n);
                let mut model = vec![0u64; n];
                let mut now = 0;
                for step in 0..400u64 {
                    // A tick's answer depends on (seed, cycle, PE) only,
                    // so both sides see the same activity.
                    let answer = |p: u16| {
                        let r = mix(seed ^ mix(now) ^ ((p as u64) << 40));
                        match r % 8 {
                            0..=3 => Activity::Active,
                            4 | 5 => Activity::Blocked(now + 2 + (r >> 8) % 12),
                            6 => Activity::Blocked(u64::MAX),
                            _ => Activity::Idle,
                        }
                    };
                    let mut got = Vec::new();
                    let ticks = w.tick_due(now, |p| {
                        got.push(p);
                        answer(p)
                    });
                    let mut want = Vec::new();
                    for (p, t) in model.iter_mut().enumerate().filter(|(_, t)| **t == now) {
                        want.push(p as u16);
                        *t = match answer(p as u16) {
                            Activity::Active => now + 1,
                            Activity::Blocked(b) => b,
                            Activity::Idle => u64::MAX,
                        };
                    }
                    assert_eq!(got, want, "n {n} seed {seed} cycle {now}");
                    assert_eq!(ticks, want.len() as u64);
                    let next = model.iter().copied().min().unwrap_or(u64::MAX);
                    assert_eq!(w.next(), next, "n {n} seed {seed} after {now}");
                    let scheduled = model.iter().filter(|&&t| t < u64::MAX).count();
                    assert_eq!(w.occupancy(), scheduled as u64);
                    // Advance to the next wake, or to an earlier cycle
                    // with deliveries to a few random PEs.
                    let r = mix(seed ^ ((n as u64) << 32) ^ step);
                    let deliver = r.is_multiple_of(3) || next == u64::MAX;
                    now = if deliver {
                        (now + 1 + (r >> 8) % 5).min(next)
                    } else {
                        next
                    };
                    if deliver {
                        for k in 0..=(r >> 16) % 3 {
                            let p = (mix(r ^ k) % n as u64) as usize;
                            w.deliver(p as u16, now);
                            model[p] = model[p].min(now);
                        }
                    }
                }
            }
        }
    }
}
