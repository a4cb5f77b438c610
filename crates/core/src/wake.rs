//! Per-PE wake bookkeeping for the run loop.
//!
//! Each PE carries its earliest scheduled tick, `wake[p]` (`u64::MAX` =
//! none: only a message delivery can make it runnable again). A tick's
//! [`Activity`] schedules the next one:
//!
//! * `Active` (and `Blocked(now + 1)`) → the PE joins the **active
//!   list**, an ascending vector of PEs due at the next cycle. Busy PEs
//!   return `Active` on almost every tick, so this path is a push onto
//!   a vector instead of a heap push and pop;
//! * `Blocked(t)`, `now + 1 < t < u64::MAX` → a `(t, pe)` entry in a
//!   binary heap;
//! * `Blocked(u64::MAX)` / `Idle` → nothing scheduled.
//!
//! A delivery to a PE pulls its wake to the delivery cycle (a heap
//! entry). Heap entries use lazy invalidation: an entry is stale once
//! its time no longer matches `wake[pe]`.
//!
//! [`WakeSet::tick_due`] merges the active list and the due heap entries
//! in ascending PE order — the memory-port reservation order the golden
//! digests pin — and ticks a PE only if `wake[pe]` is the current
//! cycle at tick time. That check is what makes a PE tick exactly once
//! when it is listed twice: a delivery can pull a PE ahead of a pending
//! `Blocked(t)` wake, and if that tick then returns `Active` with
//! `t == now + 1`, the PE sits in both the active list and the heap for
//! the same cycle.

use crate::pipeline::Activity;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(crate) struct WakeSet {
    /// Each PE's earliest scheduled tick (`u64::MAX` = none).
    wake: Vec<u64>,
    /// PEs due at `active_at`, ascending.
    active: Vec<u16>,
    active_at: u64,
    /// The active list being built during a drain (kept for its buffer).
    next_active: Vec<u16>,
    /// `(time, pe)` wakes outside the active list, lazily invalidated.
    heap: BinaryHeap<Reverse<(u64, u16)>>,
}

impl WakeSet {
    /// `n` PEs, every one due at cycle 0.
    pub(crate) fn new(n: usize) -> Self {
        WakeSet {
            wake: vec![0; n],
            active: (0..n as u16).collect(),
            active_at: 0,
            next_active: Vec::with_capacity(n),
            heap: BinaryHeap::new(),
        }
    }

    /// A message was delivered to `pe` at `now`: it ticks this cycle.
    #[inline]
    pub(crate) fn deliver(&mut self, pe: u16, now: u64) {
        let slot = &mut self.wake[pe as usize];
        if now < *slot {
            *slot = now;
            self.heap.push(Reverse((now, pe)));
        }
    }

    /// Scheduled wake entries, stale heap entries included — the host-side
    /// cost of the bookkeeping (`EngineReport::wake_heap_occupancy`).
    #[inline]
    pub(crate) fn occupancy(&self) -> u64 {
        (self.heap.len() + self.active.len()) as u64
    }

    /// Ticks every PE due at `now` in ascending PE order, scheduling
    /// each from the [`Activity`] `tick` returns. Returns the number of
    /// ticks.
    pub(crate) fn tick_due(&mut self, now: u64, mut tick: impl FnMut(u16) -> Activity) -> u64 {
        debug_assert!(
            self.active.is_empty() || self.active_at == now,
            "active list due at {} skipped (now {now})",
            self.active_at
        );
        let mut ticks = 0;
        let mut i = 0;
        loop {
            let due = match self.heap.peek() {
                Some(&Reverse((t, p))) if t <= now => Some((t, p)),
                _ => None,
            };
            let (t, p) = match (self.active.get(i), due) {
                (Some(&a), Some(e)) if e < (now, a) => {
                    self.heap.pop();
                    e
                }
                (Some(&a), _) => {
                    i += 1;
                    (now, a)
                }
                (None, Some(e)) => {
                    self.heap.pop();
                    e
                }
                (None, None) => break,
            };
            let pi = p as usize;
            if t != now || self.wake[pi] != now {
                continue; // stale, or already ticked this cycle
            }
            self.wake[pi] = u64::MAX;
            ticks += 1;
            let next = match tick(p) {
                Activity::Active => now + 1,
                Activity::Blocked(w) => w,
                Activity::Idle => u64::MAX,
            };
            if next == now + 1 {
                self.wake[pi] = next;
                self.next_active.push(p);
            } else if next < u64::MAX {
                debug_assert!(next > now, "wake must be in the future");
                self.wake[pi] = next;
                self.heap.push(Reverse((next, p)));
            }
        }
        self.active.clear();
        std::mem::swap(&mut self.active, &mut self.next_active);
        self.active_at = now + 1;
        ticks
    }

    /// The earliest scheduled tick (`u64::MAX` = none), dropping stale
    /// heap entries on the way.
    pub(crate) fn next(&mut self) -> u64 {
        if !self.active.is_empty() {
            // Every heap entry is later than the cycle just drained, so
            // nothing can be due before the active list.
            return self.active_at;
        }
        while let Some(&Reverse((t, p))) = self.heap.peek() {
            if self.wake[p as usize] == t {
                return t;
            }
            self.heap.pop();
        }
        u64::MAX
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
        // At cycle 1, PEs 0 (Blocked(1)), 1 and 4 (Active) are in the
        // active list; deliveries add 2, 3 and 5 through the heap.
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
    fn pe_in_active_list_and_heap_ticks_once() {
        let mut w = WakeSet::new(2);
        assert_eq!(drain(&mut w, 0, &[(0, Activity::Blocked(6))]), vec![0, 1]);
        // A delivery pulls PE 0 ahead of its Blocked(6) wake; that tick
        // returns Active, so at cycle 6 PE 0 is in the active list and
        // holds a live heap entry for the same cycle.
        w.deliver(0, 5);
        assert_eq!(w.next(), 5);
        assert_eq!(drain(&mut w, 5, &[(0, Activity::Active)]), vec![0]);
        assert_eq!(w.occupancy(), 2);
        assert_eq!(w.next(), 6);
        w.deliver(1, 6);
        // Still active after its tick at 6, PE 0 is due at 7 by then; the
        // (6, 0) heap entry must not tick it again.
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
        // PE 1 is already due at 1 (active list); PE 2 at 4 (heap).
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
    fn next_skips_stale_heap_entries() {
        let mut w = WakeSet::new(2);
        let plan = [(0, Activity::Blocked(10)), (1, Activity::Blocked(20))];
        drain(&mut w, 0, &plan);
        // Pull PE 0 earlier; its (10, 0) entry goes stale once the tick
        // reschedules it to 30.
        w.deliver(0, 3);
        assert_eq!(drain(&mut w, 3, &[(0, Activity::Blocked(30))]), vec![0]);
        assert_eq!(w.occupancy(), 3, "stale entry still counted");
        assert_eq!(w.next(), 20);
        assert_eq!(w.occupancy(), 2, "stale entry dropped");
        assert_eq!(drain(&mut w, 20, &[]), vec![1]);
        assert_eq!(w.next(), 30);
        assert_eq!(drain(&mut w, 30, &[]), vec![0]);
        assert_eq!(w.next(), u64::MAX);
    }
}
