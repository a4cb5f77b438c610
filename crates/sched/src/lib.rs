//! # dta-sched — the DTA distributed hardware scheduler
//!
//! DTA's defining feature is a fully distributed, hardware thread
//! scheduler (paper §2): every processing element has a **Local Scheduler
//! Element** ([`Lse`]) that manages its frames and ready threads, and every
//! node has a **Distributed Scheduler Element** ([`Dse`]) that load-balances
//! `FALLOC` requests across the node's PEs (and forwards them to other
//! nodes when local resources are exhausted). Scheduler elements
//! communicate by [`Message`]s — FALLOC-Request/Response, FFREE, and
//! remote-frame stores.
//!
//! The crate also defines the per-thread-instance bookkeeping
//! ([`Instance`], [`ThreadState`]) including the two states the paper's
//! prefetch mechanism adds to the lifecycle (Fig. 4): *Program DMA* (the
//! PF block occupies the pipeline) and *Wait for DMA* (the instance is off
//! the pipeline while its transfers are in flight — this is what makes
//! execution non-blocking).
//!
//! Everything here is purely functional logic plus latency constants; the
//! cycle-level orchestration (message delivery times, pipeline
//! interleaving) lives in `dta-core`.

pub mod dse;
pub mod instance;
pub mod lse;
pub mod message;

pub use dse::{Dse, DseParams, PendingFalloc};
pub use instance::{Instance, InstanceId, ThreadState};
pub use lse::{Adopted, CrashReport, Evacuee, Lse, LseParams, LseStats, Slot, StoreDelivery};
pub use message::{Dest, Envelope, Message, MsgSeq, Stamped};
