//! Message-level fault injection for the run loop.
//!
//! DMA faults are resolved inside the MFC (see `dta_mem::fault`); this
//! module handles the *protocol* faults — dropping, duplicating and
//! delaying LSE↔DSE messages — plus the DSE/LSE crash schedule.
//!
//! Every decision is a pure roll on the message's deterministic source
//! stamp ([`MsgSeq`]), so a message's fate depends only on who sent it
//! and when, never on the order the host queued it. All transforms only
//! ever *increase* delivery time: a message is never moved into a cycle
//! the loop has already simulated.
//!
//! Recovery model:
//!
//! * **drop** — the message is lost on the wire; the sender's idempotent
//!   re-send delivers it `msg_resend_timeout` cycles later with a fresh
//!   stamp (the original stamp tagged [`RESEND_STAMP_BIT`], preserving
//!   stamp uniqueness and the deterministic `(time, stamp)` tie-break).
//! * **duplicate** — a second copy arrives with its primary and the
//!   receiver discards it, so handlers stay single-delivery. The copy
//!   would land in the primary's own cycle and never deliver, wake a PE
//!   or add a visited cycle, so it is counted and recorded but never
//!   queued.
//! * **delay** — delivery slips by `msg_delay_jitter` cycles.
//!
//! `FallocRetry` (the denial-recovery timer) is exempt: faulting the
//! recovery path itself would turn bounded recovery into unbounded
//! recursion.

use crate::config::FaultPlan;
use dta_mem::fault::{
    mix64, roll, SITE_DSE_CRASH, SITE_LSE_CRASH, SITE_MSG_DELAY, SITE_MSG_DROP, SITE_MSG_DUP,
};
use dta_sched::{Message, MsgSeq};
use std::cmp::Reverse;

/// Stamp-sequence bit marking the re-send of a dropped message.
pub const RESEND_STAMP_BIT: u64 = 1 << 61;

/// Message-fault counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages dropped on the wire (each recovered by one re-send).
    pub msgs_dropped: u64,
    /// Duplicate copies injected (each discarded by its receiver).
    pub msgs_duplicated: u64,
    /// Messages whose delivery slipped by the configured jitter.
    pub msgs_delayed: u64,
}

impl FaultCounters {
    /// Any fault recorded at all?
    pub fn any(&self) -> bool {
        self.msgs_dropped + self.msgs_duplicated + self.msgs_delayed > 0
    }
}

/// Messages the injector must never touch: the recovery timer itself and
/// the whole crash/failover
/// protocol (the injector silencing its own recovery traffic would turn a
/// planned outage into an unrecoverable one).
pub fn msg_exempt(msg: &Message) -> bool {
    matches!(
        msg,
        Message::FallocRetry
            | Message::DseCrash
            | Message::DseRestart
            | Message::DseResync
            | Message::DseRegister { .. }
            | Message::FosterRelease { .. }
            | Message::LseCrash
            | Message::LseRestart
            | Message::LseAdopt { .. }
            | Message::LseAdoptStore { .. }
    )
}

/// The planned outage of one node's DSE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DseOutage {
    /// Cycle at which the DSE falls silent.
    pub crash_at: u64,
    /// Cycle at which peers treat it as dead (heartbeat lease expiry).
    pub detect_at: u64,
    /// Cycle at which it rejoins cold, if the plan restarts it at all.
    pub restart_at: Option<u64>,
}

/// The planned outage of one PE's LSE (the per-PE scheduler dying while
/// its node's DSE survives — the finest failure domain in the machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LseOutage {
    /// Cycle at which the LSE (and with it the PE) falls silent.
    pub crash_at: u64,
    /// Cycle at which evacuation lands at the peer (lease expiry).
    pub detect_at: u64,
    /// Cycle at which it rejoins cold, if the plan restarts it at all.
    pub restart_at: Option<u64>,
    /// Same-node peer elected at plan resolution to adopt the evacuated
    /// instances. Capacity-aware: the live peer with the most *planned*
    /// free frames (frame capacity minus earlier planned evacuations —
    /// never runtime state), ties broken towards the lowest PE id.
    /// `None` = no live same-node peer at detection; evacuees are lost
    /// and the run ends in a typed error if any existed.
    pub evac_to: Option<u16>,
}

/// The fully resolved DSE + LSE crash/restart schedule of a fault plan.
///
/// Built once at system construction from pure hashes of `(seed, node)`
/// and `(seed, pe)`. All liveness queries (and both successor
/// elections: the DSE arbiter and the LSE evacuation peer) are pure
/// functions of `(unit, time)` and the schedule itself, so routing
/// decisions never depend on who observed what, only on the schedule and
/// the current cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailoverSchedule {
    /// Per-node planned outage (`None` = this node's roll did not fire).
    outages: Vec<Option<DseOutage>>,
    /// Per-PE planned LSE outage (`None` = this PE's roll did not fire).
    lse_outages: Vec<Option<LseOutage>>,
    /// DSE silence-detection latency (clamped ≥ message latency ≥ 1).
    detect: u64,
    /// LSE silence-detection latency (same clamp).
    lse_detect: u64,
    /// Machine shape: PEs per node (for node↔PE mapping).
    pes_per_node: u16,
    /// Physical frames per PE (the planned-capacity unit both elections
    /// score on).
    frame_capacity: u32,
}

impl FailoverSchedule {
    /// Resolves the plan's `dse_crash` and `lse_crash` sites for an
    /// `nodes`-node machine with `pes_per_node` PEs per node. Returns
    /// `None` when the plan cannot crash anything (rates zero or no
    /// roll fired) — the `None` gates every failover code path, which is
    /// the zero-overhead-when-off guarantee.
    pub fn from_plan(
        plan: &FaultPlan,
        nodes: u16,
        pes_per_node: u16,
        frame_capacity: u32,
        msg_latency: u64,
    ) -> Option<Self> {
        let detect = plan.dse_failover_detect.max(msg_latency).max(1);
        let window = plan.dse_crash_window.max(1);
        let outages: Vec<Option<DseOutage>> = (0..nodes)
            .map(|n| {
                if !plan.has_dse_crash()
                    || !roll(plan.seed, SITE_DSE_CRASH, n as u64, plan.dse_crash_ppm)
                {
                    return None;
                }
                // Crash no earlier than cycle 1: launch seeds the first
                // FALLOC through the DSE inline at t = 0.
                let crash_at = 1 + mix64(
                    mix64(plan.seed ^ SITE_DSE_CRASH).wrapping_add(0x43_5241_5348 ^ n as u64),
                ) % window;
                // Deliberately NOT clamped past detection: a restart
                // before the lease expires is the restart-during-rehome
                // interleaving (arbitration never leaves home).
                let restart_at =
                    (plan.dse_restart_after > 0).then(|| crash_at + plan.dse_restart_after);
                Some(DseOutage {
                    crash_at,
                    detect_at: crash_at + detect,
                    restart_at,
                })
            })
            .collect();
        let lse_detect = plan.lse_detect.max(msg_latency).max(1);
        let lse_window = plan.lse_crash_window.max(1);
        let lse_outages: Vec<Option<LseOutage>> = (0..nodes * pes_per_node)
            .map(|pe| {
                if !plan.has_lse_crash()
                    || !roll(plan.seed, SITE_LSE_CRASH, pe as u64, plan.lse_crash_ppm)
                {
                    return None;
                }
                let crash_at = 1 + mix64(
                    mix64(plan.seed ^ SITE_LSE_CRASH).wrapping_add(0x43_5241_5348 ^ pe as u64),
                ) % lse_window;
                let restart_at =
                    (plan.lse_restart_after > 0).then(|| crash_at + plan.lse_restart_after);
                Some(LseOutage {
                    crash_at,
                    detect_at: crash_at + lse_detect,
                    restart_at,
                    evac_to: None,
                })
            })
            .collect();
        if !outages.iter().any(Option::is_some) && !lse_outages.iter().any(Option::is_some) {
            return None;
        }
        let mut s = FailoverSchedule {
            outages,
            lse_outages,
            detect,
            lse_detect,
            pes_per_node,
            frame_capacity,
        };
        s.resolve_evacuation_peers();
        Some(s)
    }

    /// Elects the evacuation peer of every planned LSE outage: crashes
    /// are processed in `(crash_at, pe)` order and each elects the live
    /// same-node peer with the most *planned* free frames — the PE's
    /// frame capacity minus the number of earlier evacuations already
    /// assigned to it — with ties towards the lowest PE id. The score is
    /// a pure function of the schedule (never of runtime frame tables).
    fn resolve_evacuation_peers(&mut self) {
        let mut order: Vec<(u64, u16)> = self
            .lse_outages
            .iter()
            .enumerate()
            .filter_map(|(pe, o)| o.map(|o| (o.crash_at, pe as u16)))
            .collect();
        order.sort_unstable();
        let mut planned_load = vec![0u32; self.lse_outages.len()];
        for (_, pe) in order {
            let o = self.lse_outages[pe as usize].expect("in order list");
            let node = pe / self.pes_per_node;
            let peer = (node * self.pes_per_node..(node + 1) * self.pes_per_node)
                .filter(|&q| q != pe && !self.lse_dead(q, o.detect_at))
                .map(|q| {
                    (
                        self.frame_capacity.saturating_sub(planned_load[q as usize]),
                        Reverse(q),
                    )
                })
                .max()
                .map(|(_, Reverse(q))| q);
            if let Some(q) = peer {
                planned_load[q as usize] += 1;
            }
            self.lse_outages[pe as usize]
                .as_mut()
                .expect("present")
                .evac_to = peer;
        }
    }

    /// The planned outage of `node`, if any.
    #[inline]
    pub fn outage(&self, node: u16) -> Option<DseOutage> {
        self.outages[node as usize]
    }

    /// Silence-detection latency in cycles (≥ message latency).
    #[inline]
    pub fn detect_latency(&self) -> u64 {
        self.detect
    }

    /// Is `node`'s DSE dead at cycle `t`? (Crashed, not yet restarted.)
    pub fn dead(&self, node: u16, t: u64) -> bool {
        self.outages[node as usize]
            .is_some_and(|o| t >= o.crash_at && o.restart_at.is_none_or(|r| t < r))
    }

    /// Has `node`'s death been *detected* by cycle `t`? Peers keep
    /// routing to a dead DSE until its lease expires (those messages
    /// bounce), which is what makes detection a fixed-latency event.
    pub fn detected(&self, node: u16, t: u64) -> bool {
        self.dead(node, t)
            && self.outages[node as usize].is_some_and(|o| t >= o.crash_at + self.detect)
    }

    /// The planned outage of `pe`'s LSE, if any.
    #[inline]
    pub fn lse_outage(&self, pe: u16) -> Option<LseOutage> {
        self.lse_outages[pe as usize]
    }

    /// LSE silence-detection latency in cycles (≥ message latency).
    #[inline]
    pub fn lse_detect_latency(&self) -> u64 {
        self.lse_detect
    }

    /// Does the plan crash any LSE at all? Gates the LSE-failover code
    /// paths the way `Option<FailoverSchedule>` gates DSE failover.
    pub fn lse_dead_any(&self) -> bool {
        self.lse_outages.iter().any(Option::is_some)
    }

    /// Is `pe`'s LSE dead at cycle `t`? (Crashed, not yet restarted.)
    pub fn lse_dead(&self, pe: u16, t: u64) -> bool {
        self.lse_outages[pe as usize]
            .is_some_and(|o| t >= o.crash_at && o.restart_at.is_none_or(|r| t < r))
    }

    /// Has `pe`'s LSE death been *detected* by cycle `t`? The node's DSE
    /// keeps granting to a dead PE until the lease expires (those grants
    /// bounce back as re-homed requests), which keeps detection a
    /// fixed-latency event.
    pub fn lse_detected(&self, pe: u16, t: u64) -> bool {
        self.lse_dead(pe, t)
            && self.lse_outages[pe as usize].is_some_and(|o| t >= o.crash_at + self.lse_detect)
    }

    /// The PEs of `node` whose LSE death has been detected by cycle `t`
    /// (what a DSE excludes from arbitration). Sorted by construction.
    pub fn detected_dead_pes(&self, node: u16, t: u64) -> Vec<u16> {
        (node * self.pes_per_node..(node + 1) * self.pes_per_node)
            .filter(|&pe| self.lse_detected(pe, t))
            .collect()
    }

    /// Every PE in the machine whose LSE death has been detected by `t`
    /// — what an arbiter (home DSE or fostering successor) excludes from
    /// arbitration. Sorted by construction.
    pub fn all_detected_dead_pes(&self, t: u64) -> Vec<u16> {
        (0..self.lse_outages.len() as u16)
            .filter(|&pe| self.lse_detected(pe, t))
            .collect()
    }

    /// Planned frame capacity of `node` at cycle `t`: frame capacity
    /// summed over the node's PEs whose LSE is alive. A pure function of
    /// the schedule — never of runtime frame tables — so it is safe to
    /// elect on.
    pub fn planned_node_capacity(&self, node: u16, t: u64) -> u64 {
        (node * self.pes_per_node..(node + 1) * self.pes_per_node)
            .filter(|&pe| !self.lse_dead(pe, t))
            .map(|_| self.frame_capacity as u64)
            .sum()
    }

    /// Who arbitrates `node`'s FALLOC traffic at cycle `t`?
    ///
    /// The node itself until its death is detected; then the live peer
    /// with the most *planned* frame capacity (capacity-aware successor
    /// election — PEs with dead LSEs don't count), ties towards the
    /// lowest node id, which degenerates to the historical lowest-id
    /// election when no LSE outages are scheduled; if *every* DSE is
    /// dead, the one that restarts soonest (its mailbox holds traffic
    /// until the restart); `None` if nobody ever comes back.
    pub fn arbiter(&self, node: u16, t: u64) -> Option<u16> {
        if !self.detected(node, t) {
            return Some(node);
        }
        let n = self.outages.len() as u16;
        if let Some(m) = (0..n)
            .filter(|&m| !self.dead(m, t))
            .map(|m| (self.planned_node_capacity(m, t), Reverse(m)))
            .max()
            .map(|(_, Reverse(m))| m)
        {
            return Some(m);
        }
        (0..n)
            .filter_map(|m| {
                self.outages[m as usize]
                    .and_then(|o| o.restart_at)
                    .filter(|&r| r > t)
                    .map(|r| (r, m))
            })
            .min()
            .map(|(_, m)| m)
    }

    /// PR 3's historical lowest-id successor election, kept for the
    /// capacity-aware-vs-lowest-id A/B in the failover benchmark. Not
    /// used for routing.
    pub fn lowest_id_arbiter(&self, node: u16, t: u64) -> Option<u16> {
        if !self.detected(node, t) {
            return Some(node);
        }
        let n = self.outages.len() as u16;
        if let Some(m) = (0..n).find(|&m| !self.dead(m, t)) {
            return Some(m);
        }
        (0..n)
            .filter_map(|m| {
                self.outages[m as usize]
                    .and_then(|o| o.restart_at)
                    .filter(|&r| r > t)
                    .map(|r| (r, m))
            })
            .min()
            .map(|(_, m)| m)
    }

    /// Send-time routing: the arbiter of `home` at `t`, or `home` itself
    /// when nobody is left (the message dead-letters at the silent DSE,
    /// and the quiescence watchdog reports the loss as a typed error).
    pub fn route(&self, home: u16, t: u64) -> u16 {
        self.arbiter(home, t).unwrap_or(home)
    }
}

/// Applies the message-fault rolls of `plan` to a delivery scheduled at
/// `(time, stamp)`. Returns the (possibly transformed) delivery; a
/// duplicate is only counted, since its receiver discards it. The
/// caller must have checked [`msg_exempt`] first.
pub fn transform(
    plan: &FaultPlan,
    time: u64,
    stamp: MsgSeq,
    counts: &mut FaultCounters,
) -> (u64, MsgSeq) {
    let key = ((stamp.src_rank as u64) << 40) ^ stamp.seq;
    if roll(plan.seed, SITE_MSG_DROP, key, plan.msg_drop_ppm) {
        // Lost on the wire; the idempotent re-send is the only delivery.
        counts.msgs_dropped += 1;
        let resent = MsgSeq {
            src_rank: stamp.src_rank,
            seq: stamp.seq | RESEND_STAMP_BIT,
        };
        return (time + plan.msg_resend_timeout, resent);
    }
    let mut at = time;
    if roll(plan.seed, SITE_MSG_DELAY, key, plan.msg_delay_ppm) {
        counts.msgs_delayed += 1;
        at += plan.msg_delay_jitter;
    }
    if roll(plan.seed, SITE_MSG_DUP, key, plan.msg_dup_ppm) {
        counts.msgs_duplicated += 1;
    }
    (at, stamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(drop: u32, dup: u32, delay: u32) -> FaultPlan {
        FaultPlan {
            msg_drop_ppm: drop,
            msg_dup_ppm: dup,
            msg_delay_ppm: delay,
            ..FaultPlan::seeded(0x5EED)
        }
    }

    fn stamp(rank: u32, seq: u64) -> MsgSeq {
        MsgSeq {
            src_rank: rank,
            seq,
        }
    }

    #[test]
    fn benign_plan_is_identity() {
        let p = plan(0, 0, 0);
        let mut c = FaultCounters::default();
        assert_eq!(transform(&p, 100, stamp(3, 7), &mut c), (100, stamp(3, 7)));
        assert!(!c.any());
    }

    #[test]
    fn drop_resends_later_with_marked_stamp() {
        let p = plan(1_000_000, 1_000_000, 1_000_000);
        let mut c = FaultCounters::default();
        let (t, s) = transform(&p, 100, stamp(1, 5), &mut c);
        assert_eq!(t, 100 + p.msg_resend_timeout);
        assert_eq!(s.seq, 5 | RESEND_STAMP_BIT);
        assert_eq!(s.src_rank, 1);
        // Drop excludes the other faults.
        assert_eq!(
            (c.msgs_dropped, c.msgs_duplicated, c.msgs_delayed),
            (1, 0, 0)
        );
    }

    #[test]
    fn dup_is_counted_and_delivers_only_the_primary() {
        let p = plan(0, 1_000_000, 1_000_000);
        let mut c = FaultCounters::default();
        let (t, s) = transform(&p, 100, stamp(2, 9), &mut c);
        assert_eq!(t, 100 + p.msg_delay_jitter);
        assert_eq!(s, stamp(2, 9), "primary stamp is unchanged");
        assert_eq!(
            (c.msgs_dropped, c.msgs_duplicated, c.msgs_delayed),
            (0, 1, 1)
        );
    }

    #[test]
    fn transforms_never_deliver_earlier() {
        let p = plan(400_000, 400_000, 400_000);
        let mut c = FaultCounters::default();
        for seq in 0..2_000u64 {
            let (t, _) = transform(&p, 50, stamp(0, seq), &mut c);
            assert!(t >= 50);
        }
        assert!(c.any(), "40% rates must fire over 2000 rolls");
    }

    #[test]
    fn exemptions_cover_recovery_messages() {
        assert!(msg_exempt(&Message::FallocRetry));
        assert!(msg_exempt(&Message::DseCrash));
        assert!(msg_exempt(&Message::DseRestart));
        assert!(msg_exempt(&Message::DseResync));
        assert!(msg_exempt(&Message::DseRegister { pe: 0, free: 0 }));
        assert!(msg_exempt(&Message::FosterRelease { node: 0 }));
        assert!(msg_exempt(&Message::LseCrash));
        assert!(msg_exempt(&Message::LseRestart));
        assert!(msg_exempt(&Message::LseAdopt {
            home: 0,
            index: 0,
            thread: dta_isa::ThreadId(0),
            sc: 0,
            slots: 0,
            needs_pf: false
        }));
        assert!(msg_exempt(&Message::LseAdoptStore {
            home: 0,
            index: 0,
            slot: 0,
            value: 0,
            sync: true
        }));
        assert!(!msg_exempt(&Message::FrameFreed { pe: 0 }));
    }

    fn crash_plan(ppm: u32, restart_after: u64) -> FaultPlan {
        FaultPlan {
            dse_crash_ppm: ppm,
            dse_crash_window: 1000,
            dse_failover_detect: 50,
            dse_restart_after: restart_after,
            ..FaultPlan::seeded(0xC0FFEE)
        }
    }

    #[test]
    fn schedule_is_none_when_off_or_no_roll_fires() {
        assert!(FailoverSchedule::from_plan(&crash_plan(0, 0), 4, 1, 64, 5).is_none());
        // A zero-ppm-adjacent rate that cannot fire for any of 2 nodes:
        // scan seeds for one where neither node rolls.
        let mut plan = crash_plan(1, 0);
        for seed in 0..64u64 {
            plan.seed = seed;
            if !(0..2).any(|n| roll(seed, SITE_DSE_CRASH, n, 1)) {
                assert!(FailoverSchedule::from_plan(&plan, 2, 1, 64, 5).is_none());
                return;
            }
        }
        panic!("no quiet seed in 64 tries at 1 ppm");
    }

    #[test]
    fn certain_crash_schedules_every_node_deterministically() {
        let plan = crash_plan(1_000_000, 300);
        let s = FailoverSchedule::from_plan(&plan, 3, 1, 64, 5).expect("all nodes fire");
        let s2 = FailoverSchedule::from_plan(&plan, 3, 1, 64, 5).expect("replay");
        assert_eq!(s, s2, "schedule is pure in the plan");
        for n in 0..3 {
            let o = s.outage(n).expect("fired");
            assert!(o.crash_at >= 1 && o.crash_at <= 1000);
            assert_eq!(o.detect_at, o.crash_at + 50);
            assert_eq!(o.restart_at, Some(o.crash_at + 300));
        }
        // Crash cycles differ across nodes (per-node hash keys).
        let c: Vec<u64> = (0..3).map(|n| s.outage(n).unwrap().crash_at).collect();
        assert!(c[0] != c[1] || c[1] != c[2]);
    }

    #[test]
    fn detect_clamps_to_message_latency() {
        let mut plan = crash_plan(1_000_000, 0);
        plan.dse_failover_detect = 0;
        let s = FailoverSchedule::from_plan(&plan, 1, 1, 64, 7).unwrap();
        assert_eq!(s.detect_latency(), 7);
    }

    #[test]
    fn liveness_and_arbiter_follow_the_lease() {
        let plan = crash_plan(1_000_000, 0); // no restart
        let s = FailoverSchedule::from_plan(&plan, 2, 1, 64, 5).unwrap();
        let o0 = s.outage(0).unwrap();
        assert!(!s.dead(0, o0.crash_at - 1));
        assert!(s.dead(0, o0.crash_at));
        assert!(!s.detected(0, o0.detect_at - 1));
        assert!(s.detected(0, o0.detect_at));
        // Before detection the home node still arbitrates (bounces).
        assert_eq!(s.arbiter(0, o0.crash_at), Some(0));
        // After detection: lowest-id live peer... but with certain crash
        // both fired; whoever is still alive at that cycle wins, else the
        // soonest restarter, else None.
        let o1 = s.outage(1).unwrap();
        let t = o0.detect_at.max(o1.detect_at);
        assert_eq!(s.arbiter(0, t), None, "no restart, everyone dead");
    }

    #[test]
    fn arbiter_prefers_lowest_live_then_soonest_restart() {
        let plan = crash_plan(1_000_000, 10_000);
        let s = FailoverSchedule::from_plan(&plan, 2, 1, 64, 5).unwrap();
        let o0 = s.outage(0).unwrap();
        let o1 = s.outage(1).unwrap();
        // Pick a cycle where 0 is detected dead but 1 still lives (or
        // vice versa) — the live one must arbitrate for both.
        if o0.detect_at < o1.crash_at {
            assert_eq!(s.arbiter(0, o0.detect_at), Some(1));
            assert_eq!(s.arbiter(1, o0.detect_at), Some(1));
        } else if o1.detect_at < o0.crash_at {
            assert_eq!(s.arbiter(1, o1.detect_at), Some(0));
            assert_eq!(s.arbiter(0, o1.detect_at), Some(0));
        }
        // Once both are detected dead, the soonest restarter holds the
        // mail; after restarts, home arbitrates again.
        let both = o0.detect_at.max(o1.detect_at);
        if s.dead(0, both) && s.dead(1, both) {
            let soonest = if o0.restart_at <= o1.restart_at { 0 } else { 1 };
            assert_eq!(s.arbiter(0, both), Some(soonest));
        }
        let back = o0.restart_at.unwrap().max(o1.restart_at.unwrap());
        assert_eq!(s.arbiter(0, back), Some(0));
        assert_eq!(s.route(1, back), 1);
    }

    fn lse_crash_plan(ppm: u32, restart_after: u64) -> FaultPlan {
        FaultPlan {
            lse_crash_ppm: ppm,
            lse_crash_window: 1000,
            lse_detect: 50,
            lse_restart_after: restart_after,
            ..FaultPlan::seeded(0xC0FFEE)
        }
    }

    #[test]
    fn lse_schedule_is_pure_and_per_pe() {
        let plan = lse_crash_plan(1_000_000, 300);
        let s = FailoverSchedule::from_plan(&plan, 2, 4, 64, 5).expect("all PEs fire");
        let s2 = FailoverSchedule::from_plan(&plan, 2, 4, 64, 5).expect("replay");
        assert_eq!(s, s2, "LSE schedule is pure in the plan");
        for pe in 0..8 {
            let o = s.lse_outage(pe).expect("fired");
            assert!(o.crash_at >= 1 && o.crash_at <= 1000);
            assert_eq!(o.detect_at, o.crash_at + 50);
            assert_eq!(o.restart_at, Some(o.crash_at + 300));
        }
        let c: Vec<u64> = (0..8)
            .map(|pe| s.lse_outage(pe).unwrap().crash_at)
            .collect();
        assert!(c.windows(2).any(|w| w[0] != w[1]), "per-PE hash keys");
        // No DSE outage rolled: DSE liveness queries are all-alive.
        assert!(s.outage(0).is_none());
        assert!(!s.dead(0, 10_000));
    }

    #[test]
    fn lse_liveness_follows_the_lease() {
        let plan = lse_crash_plan(1_000_000, 0); // no restart
        let s = FailoverSchedule::from_plan(&plan, 1, 2, 64, 5).unwrap();
        let o = s.lse_outage(0).unwrap();
        assert!(!s.lse_dead(0, o.crash_at - 1));
        assert!(s.lse_dead(0, o.crash_at));
        assert!(!s.lse_detected(0, o.detect_at - 1));
        assert!(s.lse_detected(0, o.detect_at));
        assert!(s.lse_dead_any());
        assert_eq!(s.lse_detect_latency(), 50);
        // Detection-based DSE exclusion list.
        let t = s
            .lse_outage(0)
            .unwrap()
            .detect_at
            .max(s.lse_outage(1).unwrap().detect_at);
        assert_eq!(s.detected_dead_pes(0, t), vec![0, 1]);
    }

    #[test]
    fn lse_detect_clamps_to_message_latency() {
        let mut plan = lse_crash_plan(1_000_000, 0);
        plan.lse_detect = 0;
        let s = FailoverSchedule::from_plan(&plan, 1, 1, 64, 7).unwrap();
        assert_eq!(s.lse_detect_latency(), 7);
    }

    #[test]
    fn evacuation_peer_is_capacity_aware_and_load_balanced() {
        // Certain crash on a 1-node × 4-PE machine: crashes elect peers
        // in (crash_at, pe) order, each charging one unit of planned
        // load, so no peer is elected twice while an equally-free one
        // remains — and every election is same-node.
        let plan = lse_crash_plan(1_000_000, 500_000);
        let s = FailoverSchedule::from_plan(&plan, 2, 4, 64, 5).unwrap();
        let mut order: Vec<(u64, u16)> = (0..8)
            .map(|pe| (s.lse_outage(pe).unwrap().crash_at, pe))
            .collect();
        order.sort_unstable();
        let mut load = [0u32; 8];
        for (_, pe) in order {
            let o = s.lse_outage(pe).unwrap();
            let node = pe / 4;
            // Recompute the expected winner exactly as the schedule does.
            let expect = (node * 4..(node + 1) * 4)
                .filter(|&q| q != pe && !s.lse_dead(q, o.detect_at))
                .map(|q| (64u32.saturating_sub(load[q as usize]), Reverse(q)))
                .max()
                .map(|(_, Reverse(q))| q);
            assert_eq!(o.evac_to, expect, "pe {pe}");
            if let Some(q) = o.evac_to {
                assert_eq!(q / 4, node, "evacuation never leaves the node");
                assert_ne!(q, pe);
                load[q as usize] += 1;
            }
        }
    }

    #[test]
    fn single_pe_node_has_no_evacuation_peer() {
        let plan = lse_crash_plan(1_000_000, 0);
        let s = FailoverSchedule::from_plan(&plan, 2, 1, 64, 5).unwrap();
        assert_eq!(s.lse_outage(0).unwrap().evac_to, None);
        assert_eq!(s.lse_outage(1).unwrap().evac_to, None);
    }

    #[test]
    fn capacity_aware_arbiter_skips_capacity_poor_nodes() {
        // Node 0's DSE crashes; node 1 has all LSEs dead while node 2 is
        // fully alive: the capacity-aware election must pick node 2 even
        // though node 1 has the lower id, and the historical lowest-id
        // election must pick node 1 — the A/B the benchmark reports.
        let mut s = FailoverSchedule::from_plan(&crash_plan(1_000_000, 0), 3, 2, 64, 5).unwrap();
        // Force a shape where only node 0's DSE is down.
        s.outages[1] = None;
        s.outages[2] = None;
        let t = s.outage(0).unwrap().detect_at;
        for pe in 2..4 {
            s.lse_outages[pe] = Some(LseOutage {
                crash_at: 1,
                detect_at: 1 + 50,
                restart_at: None,
                evac_to: None,
            });
        }
        assert_eq!(s.planned_node_capacity(1, t), 0);
        assert_eq!(s.planned_node_capacity(2, t), 128);
        assert_eq!(s.arbiter(0, t), Some(2), "capacity-aware");
        assert_eq!(s.lowest_id_arbiter(0, t), Some(1), "historical");
        // With equal capacities the two elections agree (PR 3 behaviour).
        for pe in 2..4 {
            s.lse_outages[pe] = None;
        }
        assert_eq!(s.arbiter(0, t), s.lowest_id_arbiter(0, t));
    }
}
