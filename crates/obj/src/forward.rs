//! The forwarding mechanism — written once.
//!
//! An interposer "exports a superset of the original object's interfaces,
//! reimplements those methods it sees fit and forwards the others to the
//! original object" (paper, section 2). Interposers, compositions, method
//! delegation and cross-domain proxies are all that one sentence with a
//! different answer to two questions: *which object is the target right
//! now*, and *what runs around the forwarded call*. A [`Target`] answers the
//! first; [`forwarding_interface`] is the loop they share; [`Forward`] is
//! the handle the code around a call uses to make it.
//!
//! A forwarded call is an ordinary [`Object::invoke`] on the current
//! target: the forwarder keeps no lookup of its own. A forwarder answers
//! exactly the methods of the interfaces it was built over, and an
//! interface name fixes its signatures: a new target is type-checked when
//! it is installed ([`Target::set`]), so it serves every forwarded method
//! for as long as it stays, and nothing is left for a catch-all to serve.
//!
//! [`Object::invoke`]: crate::object::Object::invoke

use std::sync::{Arc, OnceLock};

use crate::{interface::Interface, object::ObjRef, value::Value, ObjResult};

/// The object a forwarder forwards to right now, and the interfaces a
/// replacement must export.
///
/// A target is the forwarder's history: a chain that starts at the object
/// it was built over and gains one node, set once ([`OnceLock`]), per swap
/// (`interposer.retarget`, `composition.replace`). The current target is
/// the last node, so a swap takes effect on the very next forwarded call,
/// and every object a target ever held lives as long as the `Target`. The
/// trade: a call through a forwarder swapped *k* times costs *k* + 1
/// atomic loads; one never swapped pays one.
pub struct Target {
    head: Node,
    /// Every interface the forwarder sends to this target.
    forwarded: Vec<&'static str>,
}

/// One object in a target's history, and the one installed after it.
struct Node {
    obj: ObjRef,
    next: OnceLock<Box<Node>>,
}

impl Node {
    fn new(obj: ObjRef) -> Self {
        let next = OnceLock::new();
        Node { obj, next }
    }

    /// The last node of the chain from here.
    #[inline]
    fn last(&self) -> &Node {
        let mut node = self;
        while let Some(next) = node.next.get() {
            node = next;
        }
        node
    }
}

impl Target {
    /// A target pointing at `obj`, shared by the forwarder's entries and
    /// whatever re-points it; `forwarded` names the interfaces of `obj`
    /// the forwarder sends to it.
    pub fn new(obj: ObjRef, forwarded: Vec<&'static str>) -> Arc<Self> {
        let head = Node::new(obj);
        Arc::new(Target { head, forwarded })
    }

    /// The current target.
    #[inline]
    pub fn get(&self) -> &ObjRef {
        &self.head.last().obj
    }

    /// The interfaces forwarded to this target.
    pub fn forwarded(&self) -> &[&'static str] {
        &self.forwarded
    }

    /// Re-points the forwarder at `obj`, returning the object it replaced:
    /// of two racing swaps, the later replaces the earlier's object.
    ///
    /// `obj` must export every forwarded interface with the current
    /// target's signatures ([`Object::conforms`]), or the swap is refused
    /// with [`ObjError::Binding`](crate::ObjError::Binding) and the old
    /// target stays.
    ///
    /// [`Object::conforms`]: crate::object::Object::conforms
    pub fn set(&self, obj: ObjRef) -> ObjResult<ObjRef> {
        let mut tail = self.head.last();
        for &name in &self.forwarded {
            obj.conforms(name, tail.obj.interface(name)?.signatures())?;
        }
        let mut node = Box::new(Node::new(obj));
        loop {
            match tail.next.set(node) {
                Ok(()) => return Ok(tail.obj.clone()),
                // Another swap appended first: append after it.
                Err(lost) => (node, tail) = (lost, tail.last()),
            }
        }
    }
}

impl Drop for Target {
    /// One node at a time: a long history dropped recursively could
    /// overflow the stack.
    fn drop(&mut self) {
        let mut next = self.head.next.take();
        while let Some(mut node) = next {
            next = node.next.take();
        }
    }
}

/// Code run in place of a bare forward: an override, a hook wrapper, a
/// domain crossing. It decides whether, when and with which arguments the
/// forwarded call happens — through the [`Forward`] it is handed.
pub type WrapFn = Arc<dyn Fn(&Forward<'_>, &[Value]) -> ObjResult<Value> + Send + Sync>;

/// One forwarded call in flight: the method being invoked on the forwarder
/// and the target the same method is forwarded to.
pub struct Forward<'a> {
    interface: &'static str,
    method: &'static str,
    target: &'a Target,
}

impl Forward<'_> {
    /// Invokes the forwarded method on the current target.
    ///
    /// It is the current target's own `invoke`, so a retarget or a child
    /// replacement takes effect on the very next call, and a forward takes
    /// no lock and allocates nothing.
    #[inline]
    pub fn call(&self, args: &[Value]) -> ObjResult<Value> {
        self.target.get().invoke(self.interface, self.method, args)
    }

    /// Name of the interface being forwarded.
    pub fn interface(&self) -> &'static str {
        self.interface
    }

    /// Name of the method being forwarded.
    pub fn method(&self) -> &'static str {
        self.method
    }
}

/// Completes `base` into an interface that forwards to `target`'s interface
/// of the same name.
///
/// Methods `base` already implements are kept. Every other method of the
/// target's interface becomes a forwarding method under the target's own
/// signature, so type-aware clients cannot tell the forwarder from the
/// original. A method in neither is refused by the forwarder itself, with
/// the same [`ObjError::NoSuchMethod`](crate::ObjError::NoSuchMethod) the
/// target would give.
///
/// `wrap` is asked once per installed method what to run around that
/// forward; `None` installs the bare forward.
pub fn forwarding_interface(
    base: Interface,
    target: Arc<Target>,
    mut wrap: impl FnMut(&'static str) -> Option<WrapFn>,
) -> Interface {
    let mut iface = base;
    let interface = iface.name();
    let sigs = target.get().interface(interface).map(Interface::signatures);
    for sig in sigs.into_iter().flatten() {
        if iface.method(sig.name).is_some() {
            continue;
        }
        let (method, target) = (sig.name, target.clone());
        let forward: crate::interface::MethodFn = match wrap(method) {
            // Unwrapped forwards skip the indirect call and capture block.
            None => Arc::new(move |_: &ObjRef, args: &[Value]| {
                target.get().invoke(interface, method, args)
            }),
            Some(wrap) => Arc::new(move |_: &ObjRef, args: &[Value]| {
                let forward = Forward {
                    interface,
                    method,
                    target: &target,
                };
                wrap(&forward, args)
            }),
        };
        iface.insert_method(*sig, forward);
    }
    iface
}

#[cfg(test)]
mod tests {
    use super::{Node, Target};
    use crate::{
        compose::COMPOSITION_IFACE, interpose::INTERPOSER_IFACE, CompositionBuilder,
        InterposerBuilder, ObjError, ObjRef, ObjectBuilder, TypeTag, Value,
    };
    use std::{
        collections::HashMap,
        sync::{
            atomic::{AtomicBool, Ordering},
            Arc, Barrier,
        },
        thread,
    };

    fn leaf() -> ObjRef {
        ObjectBuilder::new("leaf")
            .interface("val", |i| {
                i.method("get", &[], TypeTag::Int, |_, _| Ok(Value::Int(1)))
            })
            .build()
    }

    /// A replaced target stays alive while its forwarder does (a reader may
    /// still be inside it) and is released with the forwarder.
    #[test]
    fn forwarders_release_every_target_they_ever_held() {
        let held: Vec<ObjRef> = (0..4).map(|_| leaf()).collect();
        let agent = InterposerBuilder::new(held[0].clone()).build();
        for next in &held[1..] {
            agent.invoke("val", "get", &[]).unwrap();
            agent
                .invoke(INTERPOSER_IFACE, "retarget", &[Value::Handle(next.clone())])
                .unwrap();
        }
        agent.invoke("val", "get", &[]).unwrap();
        assert!(held.iter().all(|t| Arc::strong_count(t) == 2));
        drop(agent);
        assert!(held.iter().all(|t| Arc::strong_count(t) == 1));

        let (first, second) = (leaf(), leaf());
        let comp = CompositionBuilder::new("comp")
            .child("c", first.clone())
            .export("val", "c")
            .build()
            .unwrap();
        comp.invoke("val", "get", &[]).unwrap();
        comp.invoke(
            COMPOSITION_IFACE,
            "replace",
            &[Value::Str("c".into()), Value::Handle(second.clone())],
        )
        .unwrap();
        comp.invoke("val", "get", &[]).unwrap();
        assert_eq!(
            (Arc::strong_count(&first), Arc::strong_count(&second)),
            (2, 2)
        );
        drop(comp);
        assert_eq!(
            (Arc::strong_count(&first), Arc::strong_count(&second)),
            (1, 1)
        );
    }

    /// An object's interfaces never change, so a swap to a target that
    /// lacks a forwarded interface could only fail every later call: it is
    /// refused, and the old target keeps serving.
    #[test]
    fn a_swap_to_a_target_without_a_forwarded_interface_is_refused() {
        let empty = || Value::Handle(ObjectBuilder::new("empty").build());
        let refused = |r: crate::ObjResult<Value>| match r {
            Err(crate::ObjError::Binding(m)) => assert!(m.contains("`val`"), "{m}"),
            other => panic!("swap accepted: {other:?}"),
        };

        let agent = InterposerBuilder::new(leaf()).build();
        refused(agent.invoke(INTERPOSER_IFACE, "retarget", &[empty()]));
        assert_eq!(agent.invoke("val", "get", &[]).unwrap(), Value::Int(1));

        let comp = CompositionBuilder::new("comp")
            .child("c", leaf())
            .export("val", "c")
            .build()
            .unwrap();
        refused(comp.invoke(
            COMPOSITION_IFACE,
            "replace",
            &[Value::Str("c".into()), empty()],
        ));
        assert_eq!(comp.invoke("val", "get", &[]).unwrap(), Value::Int(1));
    }

    /// A stacked agent forwards the inner agent's `interposer` interface
    /// only until its own replaces it, so it does not ask a new target
    /// for one.
    #[test]
    fn a_stacked_agent_retargets_onto_a_plain_object() {
        let outer = InterposerBuilder::new(InterposerBuilder::new(leaf()).build()).build();
        outer
            .invoke(INTERPOSER_IFACE, "retarget", &[Value::Handle(leaf())])
            .unwrap();
        assert_eq!(outer.invoke("val", "get", &[]).unwrap(), Value::Int(1));
    }

    /// An object whose `val get` answers `id`.
    fn numbered(id: i64) -> ObjRef {
        ObjectBuilder::new("numbered")
            .interface("val", |i| {
                i.method("get", &[], TypeTag::Int, move |_, _| Ok(Value::Int(id)))
            })
            .build()
    }

    fn id_of(v: &Value) -> i64 {
        v.as_handle()
            .unwrap()
            .invoke("val", "get", &[])
            .unwrap()
            .as_int()
            .unwrap()
    }

    /// A long history is released one node at a time: dropped
    /// recursively, 20 000 nodes overflow a 2 MiB thread stack in a debug
    /// build.
    #[test]
    fn a_long_history_drops_without_recursion() {
        let (obj, target) = (leaf(), Target::new(leaf(), Vec::new()));
        let mut tail = &target.head;
        for _ in 0..100_000 {
            tail = tail.next.get_or_init(|| Box::new(Node::new(obj.clone())));
        }
        let drop_it = move || drop(target);
        let on_small_stack = thread::Builder::new().stack_size(64 << 10).spawn(drop_it);
        on_small_stack.unwrap().join().unwrap();
    }

    /// Two writers retarget one interposer while two readers call through
    /// it and a third thread keeps trying a swap the type check refuses.
    /// Every accepted swap replaces a different object, so the replaced
    /// objects link every installed one into one install order; each
    /// reader sees installed objects only, in that order; and the object
    /// left current is the last one installed, never the refused one. Many
    /// short races rather than one long one: the writers start each round
    /// together, and a short history keeps a swap cheap next to the
    /// moment two swaps can collide in.
    #[test]
    fn racing_swaps_form_one_history_that_readers_follow_in_order() {
        for _ in 0..40 {
            race_swaps(100);
        }
    }

    fn race_swaps(swaps: i64) {
        let agent = InterposerBuilder::new(numbered(0)).build();
        // `val` with a method `numbered`'s lacks: another type.
        let grown = ObjectBuilder::new("grown")
            .interface("val", |i| {
                i.method("get", &[], TypeTag::Int, |_, _| Ok(Value::Int(-1)))
                    .method("twice", &[], TypeTag::Int, |_, _| Ok(Value::Int(-2)))
            })
            .build();
        let (done, start) = (AtomicBool::new(false), &Barrier::new(2));
        let retarget =
            |obj: ObjRef| agent.invoke(INTERPOSER_IFACE, "retarget", &[Value::Handle(obj)]);

        let (swapped, refused, seen) = thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    s.spawn(move || {
                        let ids: Vec<i64> = (1..=swaps).map(|i| w * swaps + i).collect();
                        let objs: Vec<ObjRef> = ids.iter().map(|&id| numbered(id)).collect();
                        start.wait();
                        let olds: Vec<Value> =
                            objs.into_iter().map(|o| retarget(o).unwrap()).collect();
                        ids.into_iter()
                            .zip(olds.iter().map(id_of))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let refuser = s.spawn(|| {
                let mut refused = 0;
                loop {
                    match retarget(grown.clone()) {
                        Err(ObjError::Binding(_)) => refused += 1,
                        other => panic!("a mistyped swap was accepted: {other:?}"),
                    }
                    if done.load(Ordering::Relaxed) {
                        return refused;
                    }
                    thread::yield_now();
                }
            });
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        // Each object this reader reached, in the order reached.
                        let mut seen = vec![0];
                        while !done.load(Ordering::Relaxed) {
                            let id = agent.invoke("val", "get", &[]).unwrap().as_int().unwrap();
                            if seen.last() != Some(&id) {
                                seen.push(id);
                            }
                            thread::yield_now();
                        }
                        seen
                    })
                })
                .collect();
            let swapped: Vec<_> = writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect();
            done.store(true, Ordering::Relaxed);
            let seen: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            (swapped, refuser.join().unwrap(), seen)
        });

        // Each replaced object was replaced once: following "replaced by"
        // from the first target visits every installed object.
        let next: HashMap<i64, i64> = swapped.iter().map(|&(new, old)| (old, new)).collect();
        assert_eq!(next.len(), swapped.len(), "two swaps replaced one object");
        let mut order = vec![0];
        while let Some(&n) = next.get(order.last().unwrap()) {
            order.push(n);
        }
        assert_eq!(order.len() as i64, 2 * swaps + 1);
        let position: HashMap<i64, usize> =
            order.iter().enumerate().map(|(p, &id)| (id, p)).collect();
        for writer in swapped.chunks(swaps as usize) {
            assert!(writer
                .windows(2)
                .all(|w| position[&w[0].0] < position[&w[1].0]));
        }
        for reader in &seen {
            let at: Vec<usize> = reader.iter().map(|id| position[id]).collect();
            assert!(at.windows(2).all(|w| w[0] < w[1]), "a reader went back");
        }
        assert!(refused > 0);
        let current = agent.invoke(INTERPOSER_IFACE, "target", &[]).unwrap();
        assert_eq!(id_of(&current), *order.last().unwrap());
    }
}
