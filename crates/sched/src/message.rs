//! Scheduler messages.
//!
//! The paper (§2): "Scheduler elements communicate among themselves by
//! sending messages. These messages can signal the allocation of a new
//! frame (FALLOC-Request and FALLOC-Response messages), releasing a frame
//! (FFREE message) and storing the data in remote frames."
//!
//! Delivery timing is owned by the core simulator's message network; this
//! module only defines the payloads and addressing.

use crate::instance::InstanceId;
use dta_isa::{FramePtr, ThreadId};

/// Message destinations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dest {
    /// The DSE of a node.
    Dse(u16),
    /// The LSE of a PE (global PE index).
    Lse(u16),
    /// The pipeline of a PE (FALLOC responses unblock it).
    Pipeline(u16),
}

/// Scheduler message payloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Message {
    /// PE → DSE: request a frame for an instance of `thread`.
    FallocRequest {
        /// PE whose pipeline is blocked waiting for the response.
        requester: u16,
        /// The requesting instance (correlation token for the response).
        for_inst: InstanceId,
        /// Static thread to instantiate.
        thread: ThreadId,
        /// Synchronisation count for the new instance.
        sc: u16,
        /// Inter-node forwarding hop count (0 = original request).
        hops: u16,
    },
    /// DSE → LSE: create the frame/instance on the chosen PE.
    AllocFrame {
        /// PE whose pipeline is blocked waiting for the response.
        requester: u16,
        /// The requesting instance (correlation token for the response).
        for_inst: InstanceId,
        /// Static thread to instantiate.
        thread: ThreadId,
        /// Synchronisation count for the new instance.
        sc: u16,
    },
    /// LSE → requesting pipeline: the granted frame pointer.
    FallocResponse {
        /// The granted frame.
        frame: FramePtr,
        /// The instance whose `FALLOC` this answers.
        for_inst: InstanceId,
    },
    /// DSE → requesting pipeline: the request was queued (no frame
    /// capacity anywhere). The requesting thread must deschedule so other
    /// ready threads can use the pipeline — the grant arrives later as a
    /// normal `FallocResponse`. (Without this, a fork storm on a single
    /// PE would deadlock the machine.)
    FallocDeferred {
        /// The instance whose `FALLOC` was queued.
        for_inst: InstanceId,
    },
    /// Any PE → owning LSE: store a value into a frame slot (decrements
    /// the target's SC).
    Store {
        /// Target frame.
        frame: FramePtr,
        /// Destination slot.
        slot: u16,
        /// The 64-bit datum.
        value: i64,
    },
    /// Any PE → owning LSE: release a frame.
    Ffree {
        /// Frame to release.
        frame: FramePtr,
    },
    /// LSE → its DSE: a frame was freed (updates the DSE's free-frame
    /// mirror and may unblock queued FALLOCs).
    FrameFreed {
        /// PE that freed the frame.
        pe: u16,
    },
    /// MFC → LSE: a DMA transfer belonging to `owner` completed.
    DmaDone {
        /// The owning instance.
        owner: InstanceId,
        /// Tag group of the completed command.
        tag: u8,
    },
    /// DSE → itself: re-arbitrate FALLOCs parked by an injected denial.
    /// Posted as a one-shot timer when fault injection denies an
    /// allocation; exempt from message faults so recovery always runs.
    FallocRetry,
    /// Fault injector → DSE: the scheduled crash fires — the DSE falls
    /// silent and its queue/mirrors are re-homed to the successor node.
    DseCrash,
    /// Fault injector → DSE: the scheduled restart fires — the DSE
    /// rejoins cold (empty queue, mirrors rebuilt from peer resyncs).
    DseRestart,
    /// Arbiter DSE → LSE: "your arbiter changed (crash or restart) —
    /// re-register your free-frame count with the current arbiter".
    DseResync,
    /// LSE → arbiter DSE: re-registration carrying the PE's authoritative
    /// free-frame count (rebuilds the arbiter's capacity mirror).
    DseRegister {
        /// The re-registering PE (global index).
        pe: u16,
        /// Its current free physical frame count.
        free: u32,
    },
    /// Restarted DSE → its former successor: the home node is back —
    /// drop any fostered capacity mirrors for its PEs.
    FosterRelease {
        /// The node whose DSE restarted.
        node: u16,
    },
    /// Fault injector → LSE: the scheduled per-PE scheduler crash fires —
    /// the PE's LSE (and with it the pipeline) falls silent; pre-start
    /// frames evacuate to the planned same-node peer.
    LseCrash,
    /// Fault injector → LSE: the scheduled LSE restart fires — the PE
    /// rejoins cold and re-registers its capacity with the arbiter.
    LseRestart,
    /// Crashed LSE → evacuation peer: re-admit one not-yet-started
    /// instance. The peer allocates a local frame for it; the original
    /// frame's filled slots follow as raw [`Message::LseAdoptStore`]s
    /// (`sync: false`) from the same source stamp stream, so they land in
    /// order before any later producer store.
    LseAdopt {
        /// The crashed PE (global index) the instance evacuates from.
        home: u16,
        /// The evacuated frame's index at the crashed LSE (correlation
        /// key for adopt-stores: producers still address `(home, index)`).
        index: u32,
        /// Static thread of the instance.
        thread: ThreadId,
        /// Remaining synchronisation count (0 for a replayed snapshot).
        sc: u16,
        /// Frame slot count of the thread.
        slots: u16,
        /// Whether the thread declared a prefetch buffer.
        needs_pf: bool,
    },
    /// A store for an evacuated frame, re-addressed to the adopting peer.
    /// `sync: false` replays the crashed frame's snapshot (raw slot set,
    /// no SC decrement — those stores were already counted); `sync: true`
    /// forwards a live producer store (ordinary SC-decrementing store).
    LseAdoptStore {
        /// The crashed PE the frame evacuated from.
        home: u16,
        /// The evacuated frame's index at the crashed LSE.
        index: u32,
        /// Destination slot.
        slot: u16,
        /// The 64-bit datum.
        value: i64,
        /// Ordinary store (`true`) vs snapshot replay (`false`).
        sync: bool,
    },
}

/// A routed message with a relative delivery delay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// Where it goes.
    pub to: Dest,
    /// What it carries.
    pub msg: Message,
    /// Cycles from send to delivery.
    pub delay: u64,
}

/// A deterministic source stamp for a posted message.
///
/// Every posted envelope carries the *logical* identity of its send:
/// which unit sent it ([`MsgSeq::src_rank`], a fixed rank over all units
/// in the machine) and that unit's monotonically increasing send counter
/// ([`MsgSeq::seq`]). The run loop delivers same-cycle messages in stamp
/// order, so delivery order is a function of what the units did, never
/// of the order the host happened to queue the posts in. Message-fault
/// rolls are keyed on the stamp for the same reason.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct MsgSeq {
    /// Rank of the sending unit in the sequential tick order (PEs first
    /// by global index, then DSEs by node).
    pub src_rank: u32,
    /// The sender's per-unit monotonic send counter.
    pub seq: u64,
}

impl MsgSeq {
    /// The first stamp of a unit.
    pub fn first(src_rank: u32) -> MsgSeq {
        MsgSeq { src_rank, seq: 0 }
    }

    /// Returns the current stamp and advances the counter
    /// (post-increment).
    pub fn bump(&mut self) -> MsgSeq {
        let s = *self;
        self.seq += 1;
        s
    }
}

/// An [`Envelope`] carrying its deterministic source stamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stamped {
    /// The routed message.
    pub env: Envelope,
    /// Who sent it, and their how-many-eth send it was.
    pub stamp: MsgSeq,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_are_plain_data() {
        let e = Envelope {
            to: Dest::Lse(3),
            msg: Message::Store {
                frame: FramePtr::new(3, 7),
                slot: 1,
                value: -9,
            },
            delay: 5,
        };
        let e2 = e;
        assert_eq!(e, e2);
        match e2.msg {
            Message::Store { frame, slot, value } => {
                assert_eq!(frame, FramePtr::new(3, 7));
                assert_eq!(slot, 1);
                assert_eq!(value, -9);
            }
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn msgseq_orders_by_rank_then_counter() {
        let mut a = MsgSeq::first(0);
        let mut b = MsgSeq::first(1);
        let a0 = a.bump();
        let a1 = a.bump();
        let b0 = b.bump();
        assert!(a0 < a1, "per-unit sends are ordered by counter");
        assert!(a1 < b0, "lower ranks sort first regardless of counter");
        assert_eq!(
            a0,
            MsgSeq {
                src_rank: 0,
                seq: 0
            }
        );
        assert_eq!(a.bump().seq, 2);
    }

    #[test]
    fn stamped_preserves_envelope() {
        let e = Envelope {
            to: Dest::Dse(0),
            msg: Message::FallocRequest {
                requester: 2,
                for_inst: InstanceId(9),
                thread: ThreadId(5),
                sc: 3,
                hops: 0,
            },
            delay: 4,
        };
        let s = Stamped {
            env: e,
            stamp: MsgSeq::first(7),
        };
        assert_eq!(s.env, e);
        assert_eq!(s.stamp.src_rank, 7);
    }
}
