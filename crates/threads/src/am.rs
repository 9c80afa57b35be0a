//! Active-message invocations.
//!
//! The paper's memory-management section mentions placing objects in
//! separate MMU contexts "when implementing active message like
//! invocations" (§3), referencing the authors' *Using Active Messages to
//! Support Shared Objects* \[10\]. An active message names a handler — here
//! an object method — and is executed *immediately on arrival* in
//! interrupt context via the proto-thread fast path, only growing into a
//! real thread if the handler blocks.
//!
//! [`AmEndpoint`] models the receiving side: posting a message enqueues
//! it and raises an interrupt line; the attached pop-up engine drains the
//! queue and invokes the named method. The target object may be a
//! cross-domain proxy, in which case the invocation pays the usual
//! crossing — exactly the trade-off the paper's placement argument is
//! about.

use std::{collections::VecDeque, sync::Arc};

use parking_lot::Mutex;

use paramecium_core::{domain::DomainId, events::EventService, CoreResult};
use paramecium_machine::{trap::IRQ_VECTOR_BASE, Machine};
use paramecium_obj::{ObjRef, ObjResult, Value};

use crate::{
    popup::{PopupEngine, PopupFactory},
    tcb::Step,
};

/// One active message: invoke `interface::method(args)` on `target`.
pub struct ActiveMsg {
    /// The handler object (possibly a proxy).
    pub target: ObjRef,
    /// Interface name.
    pub interface: String,
    /// Method name.
    pub method: String,
    /// Arguments.
    pub args: Vec<Value>,
}

/// A completed active message: its id and the handler's result.
pub type AmCompletion = (u64, ObjResult<Value>);

/// The receiving endpoint of an active-message channel.
pub struct AmEndpoint {
    machine: Arc<Mutex<Machine>>,
    irq_line: u32,
    /// Bound of both the message queue and the completions.
    capacity: usize,
    state: Mutex<AmState>,
}

struct AmState {
    queue: VecDeque<(u64, ActiveMsg)>,
    completions: Vec<AmCompletion>,
    next_id: u64,
    /// Messages refused because the queue was full.
    dropped: u64,
    /// Completions not kept because `completions` was full.
    shed: u64,
}

impl AmEndpoint {
    /// Creates an endpoint on `irq_line` and attaches its dispatcher to
    /// the event service through `engine` (pop-up threads in `domain`).
    /// `capacity` bounds both the queued messages and the completions
    /// kept for [`AmEndpoint::take_completions`].
    pub fn install(
        events: &EventService,
        engine: &Arc<PopupEngine>,
        machine: Arc<Mutex<Machine>>,
        irq_line: u32,
        domain: DomainId,
        capacity: usize,
    ) -> CoreResult<Arc<Self>> {
        let endpoint = Arc::new(AmEndpoint {
            machine,
            irq_line,
            capacity: capacity.max(1),
            state: Mutex::new(AmState {
                queue: VecDeque::new(),
                completions: Vec::new(),
                next_id: 1,
                dropped: 0,
                shed: 0,
            }),
        });
        let ep = endpoint.clone();
        let factory: PopupFactory = Arc::new(move |_trap| {
            let ep = ep.clone();
            Box::new(move |_ctx| {
                // Drain everything pending: interrupts coalesce, so one
                // pop-up may serve several messages. The handler runs with
                // no endpoint lock held: it may post to this endpoint.
                while let Some((id, msg)) = ep.take_next() {
                    let result = msg.target.invoke(&msg.interface, &msg.method, &msg.args);
                    ep.complete(id, result);
                }
                Step::Done
            })
        });
        engine.attach(events, IRQ_VECTOR_BASE + irq_line, domain, factory)?;
        Ok(endpoint)
    }

    /// Posts a message: enqueues it and raises the endpoint's interrupt.
    /// Returns the message id, or `None` if the queue was full (the
    /// sender's problem, as with any network).
    pub fn post(&self, msg: ActiveMsg) -> Option<u64> {
        let id = {
            let mut st = self.state.lock();
            if st.queue.len() >= self.capacity {
                st.dropped += 1;
                return None;
            }
            let id = st.next_id;
            st.next_id += 1;
            st.queue.push_back((id, msg));
            id
        };
        self.machine.lock().irq.raise(self.irq_line);
        Some(id)
    }

    fn take_next(&self) -> Option<(u64, ActiveMsg)> {
        self.state.lock().queue.pop_front()
    }

    /// Keeps a handler's result for `take_completions`, or counts it as
    /// shed once `capacity` results are waiting there.
    fn complete(&self, id: u64, result: ObjResult<Value>) {
        let mut st = self.state.lock();
        if st.completions.len() >= self.capacity {
            st.shed += 1;
        } else {
            st.completions.push((id, result));
        }
    }

    /// Drains the accumulated completions.
    pub fn take_completions(&self) -> Vec<AmCompletion> {
        std::mem::take(&mut self.state.lock().completions)
    }

    /// Messages rejected because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Completions not kept because `capacity` of them were waiting to be
    /// taken.
    pub fn shed(&self) -> u64 {
        self.state.lock().shed
    }

    /// Messages currently queued.
    pub fn pending(&self) -> usize {
        self.state.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{popup::PopupMode, sched::Scheduler};
    use paramecium_core::domain::KERNEL_DOMAIN;
    use paramecium_obj::{ObjectBuilder, TypeTag};

    fn adder() -> ObjRef {
        ObjectBuilder::new("adder")
            .state(0i64)
            .interface("math", |i| {
                i.method("acc", &[TypeTag::Int], TypeTag::Int, |this, args| {
                    let v = args[0].as_int()?;
                    this.with_state(|s: &mut i64| {
                        *s += v;
                        Ok(Value::Int(*s))
                    })
                })
            })
            .build()
    }

    struct Rig {
        endpoint: Arc<AmEndpoint>,
        events: Arc<EventService>,
        machine: Arc<Mutex<Machine>>,
        scheduler: Scheduler,
        engine: Arc<PopupEngine>,
    }

    fn rig(capacity: usize) -> Rig {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let scheduler = Scheduler::new(machine.clone());
        let engine = PopupEngine::new(scheduler.clone(), PopupMode::Proto);
        let events = Arc::new(EventService::new());
        let endpoint = AmEndpoint::install(
            &events,
            &engine,
            machine.clone(),
            5,
            KERNEL_DOMAIN,
            capacity,
        )
        .unwrap();
        Rig {
            endpoint,
            events,
            machine,
            scheduler,
            engine,
        }
    }

    /// Delivers pending interrupts like the nucleus poll loop would.
    fn pump(r: &Rig) {
        r.events.drain_interrupts(&r.machine);
        r.scheduler.run_until_idle(64);
    }

    #[test]
    fn messages_invoke_handlers_in_order() {
        let r = rig(16);
        let target = adder();
        for v in [3i64, 4, 5] {
            r.endpoint
                .post(ActiveMsg {
                    target: target.clone(),
                    interface: "math".into(),
                    method: "acc".into(),
                    args: vec![Value::Int(v)],
                })
                .unwrap();
        }
        pump(&r);
        let done = r.endpoint.take_completions();
        assert_eq!(done.len(), 3);
        // In-order accumulation: 3, 7, 12.
        assert_eq!(done[0].1.as_ref().unwrap(), &Value::Int(3));
        assert_eq!(done[1].1.as_ref().unwrap(), &Value::Int(7));
        assert_eq!(done[2].1.as_ref().unwrap(), &Value::Int(12));
        assert_eq!(r.endpoint.pending(), 0);
        // Coalesced interrupts still handled everything on the fast path.
        assert!(r.engine.stats().fast_path >= 1);
        assert_eq!(r.engine.stats().promotions, 0);
    }

    #[test]
    fn handler_errors_are_captured_not_fatal() {
        let r = rig(16);
        let target = adder();
        r.endpoint
            .post(ActiveMsg {
                target: target.clone(),
                interface: "math".into(),
                method: "no-such".into(),
                args: vec![],
            })
            .unwrap();
        r.endpoint
            .post(ActiveMsg {
                target,
                interface: "math".into(),
                method: "acc".into(),
                args: vec![Value::Int(1)],
            })
            .unwrap();
        pump(&r);
        let done = r.endpoint.take_completions();
        assert_eq!(done.len(), 2);
        assert!(done[0].1.is_err());
        assert!(done[1].1.is_ok());
    }

    #[test]
    fn full_queue_drops_with_count() {
        let r = rig(2);
        let target = adder();
        let msg = |v: i64| ActiveMsg {
            target: target.clone(),
            interface: "math".into(),
            method: "acc".into(),
            args: vec![Value::Int(v)],
        };
        assert!(r.endpoint.post(msg(1)).is_some());
        assert!(r.endpoint.post(msg(2)).is_some());
        assert!(r.endpoint.post(msg(3)).is_none());
        assert_eq!(r.endpoint.dropped(), 1);
        pump(&r);
        // Two more, and nobody takes the first two completions: the
        // completions are full, so the new ones are shed and counted.
        assert!(r.endpoint.post(msg(4)).is_some());
        assert!(r.endpoint.post(msg(5)).is_some());
        pump(&r);
        assert_eq!((r.endpoint.dropped(), r.endpoint.shed()), (1, 2));
        let ids: Vec<u64> = r.endpoint.take_completions().iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![1, 2]);
        // Taking them makes room again.
        r.endpoint.post(msg(6)).unwrap();
        pump(&r);
        assert_eq!(r.endpoint.take_completions().len(), 1);
        assert_eq!(r.endpoint.shed(), 2);
    }

    // Cross-domain active messages (handler behind a proxy) are exercised
    // in the workspace integration test `tests/threads_and_interrupts.rs`,
    // where the facade harness is available.
}
