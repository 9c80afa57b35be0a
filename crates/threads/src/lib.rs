//! The thread package — a component *outside* the nucleus.
//!
//! "All other system components, like thread packages, device drivers, and
//! virtual memory implementations reside outside this nucleus." (paper,
//! section 3). This crate provides that thread package:
//!
//! - [`tcb`] — thread control blocks and the step-based thread body model,
//! - [`sched`] — a round-robin scheduler with cycle accounting,
//! - [`sync`] — semaphores (a mutex is one with a single permit) and
//!   channels for simulated threads,
//! - [`popup`] — pop-up threads for interrupts with the *proto-thread*
//!   optimisation: "we delay the actual creation of the pop-up thread by
//!   creating a proto-thread. Only when the proto-thread is about to block
//!   or be rescheduled do we turn it into a real thread. This allows us to
//!   provide fast interrupt processing of user code with proper thread
//!   semantics."
//! - [`am`] — active-message endpoints: post a message, raise an IRQ,
//!   let a pop-up thread invoke the named handler method,
//! - [`pool`] — the cross-world layer: lock-free mailboxes, the
//!   cross-world active-message bus, and the bulk-synchronous round
//!   barrier the world pool runs on.
//!
//! # The two-level execution model
//!
//! There are two kinds of "thread" here, and they never mix:
//!
//! 1. **Simulated threads within a world** are deterministic
//!    run-to-completion state machines on *one* OS thread: a thread body
//!    is a closure invoked repeatedly, returning [`Step::Yield`],
//!    [`Step::Block`] or [`Step::Done`] at each scheduling point. That
//!    keeps each world single-threaded and bit-reproducible while
//!    modelling exactly the scheduling structure (and costs) the paper
//!    talks about.
//! 2. **Real OS threads across worlds**: a world pool runs many
//!    independent worlds concurrently, each pinned to one OS thread per
//!    bulk-synchronous round. Worlds share no simulated state — the only
//!    channel between them is the active-message bus in [`pool`], whose
//!    round-tagged, `(sender, sequence)`-sorted delivery makes each
//!    world's state a pure function of its seed and the messages it
//!    receives, independent of how many OS threads the pool uses or how
//!    the OS interleaves them.
//!
//! Level 2 is invisible from level 1: a cross-world message arrives as
//! an interrupt on the receiving world's machine and is handled by the
//! same pop-up engine that handles device interrupts, so handler code
//! cannot tell a remote world from a local device.

#![deny(unsafe_code)]

pub mod am;
#[allow(unsafe_code)]
pub mod pool;
pub mod popup;
pub mod sched;
pub mod sync;
pub mod tcb;

pub use am::{ActiveMsg, AmEndpoint};
pub use pool::{CrossBus, CrossEndpoint, CrossMsg, CrossStats, Mailbox, RoundBarrier};
pub use popup::{PopupEngine, PopupMode, PopupStats};
pub use sched::{SchedStats, Scheduler};
pub use sync::{Channel, Semaphore};
pub use tcb::{Step, ThreadBody, ThreadCtx, Tid};
