//! Thread control blocks and the step-based execution model.

use std::sync::Arc;

use parking_lot::Mutex;

use paramecium_machine::{cost::Cycles, Machine};

/// A thread identifier.
pub type Tid = u64;

/// What a thread body reports at each scheduling point.
pub enum Step {
    /// Keep going later: put me back on the ready queue.
    Yield,
    /// I am waiting on the given waitable (semaphore, channel…); wake me
    /// when it signals.
    Block(Arc<dyn Waitable>),
    /// Finished.
    Done,
}

/// Something a thread can block on. Implemented by the primitives in
/// [`crate::sync`].
pub trait Waitable: Send + Sync {
    /// Parks `tid` on this waitable. The scheduler calls this when a body
    /// returns [`Step::Block`].
    fn park(&self, tid: Tid);
}

/// The body of a thread: called once per scheduling slice.
pub type ThreadBody = Box<dyn FnMut(&mut ThreadCtx) -> Step + Send>;

/// Execution context handed to a running thread body.
pub struct ThreadCtx<'a> {
    /// The machine, for charging simulated work.
    pub machine: &'a Mutex<Machine>,
    /// Slice counter: how many times this body has been entered.
    pub entries: u64,
}

impl ThreadCtx<'_> {
    /// Charges `cycles` of simulated work to the machine.
    pub fn work(&self, cycles: Cycles) {
        self.machine.lock().charge(cycles);
    }
}

/// The scheduling state of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TState {
    /// On the ready queue.
    Ready,
    /// Currently executing.
    Running,
    /// Parked on a waitable.
    Blocked,
}

/// A thread control block.
pub struct Tcb {
    /// Scheduling state.
    pub state: TState,
    /// The body; taken out while running.
    pub body: Option<ThreadBody>,
    /// Times the body has been entered.
    pub entries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ctx_charges_machine() {
        let machine = Mutex::new(Machine::new());
        let ctx = ThreadCtx {
            machine: &machine,
            entries: 0,
        };
        ctx.work(123);
        assert_eq!(machine.lock().now(), 123);
    }
}
