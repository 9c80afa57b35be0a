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

use std::sync::Arc;

use crate::{
    interface::Interface, object::ObjRef, snapcell::SnapCell, typeinfo::MethodSig, value::Value,
    InterfaceDescriptor, ObjResult,
};

/// The object a forwarder forwards to right now.
///
/// Reading it is one atomic load; re-pointing it (`interposer.retarget`,
/// `composition.replace`) takes effect on the very next forwarded call. A
/// target that has been replaced stays allocated until the `Target` itself
/// drops — the publish cell's retention rule — so it lives exactly as long
/// as the forwarder that once held it.
pub struct Target(SnapCell<ObjRef>);

impl Target {
    /// A target pointing at `obj`, to be shared by the forwarder's
    /// entries and whatever re-points it.
    pub fn new(obj: ObjRef) -> Arc<Self> {
        let cell = SnapCell::new();
        cell.publish(obj);
        Arc::new(Target(cell))
    }

    /// The current target.
    #[inline]
    pub fn get(&self) -> &ObjRef {
        self.0
            .load()
            .expect("a target is published at construction")
    }

    /// Re-points the forwarder at `obj`, returning the object it replaced.
    ///
    /// `forwarded` is the type of every interface the forwarder sends to
    /// this target, as recorded when it was built. `obj` must export each
    /// with exactly those signatures ([`Object::conforms`]); if one is
    /// missing or differs, the swap is refused with
    /// [`ObjError::Binding`](crate::ObjError::Binding) and the old target
    /// stays.
    ///
    /// [`Object::conforms`]: crate::object::Object::conforms
    pub fn set(&self, obj: ObjRef, forwarded: &[InterfaceDescriptor]) -> ObjResult<ObjRef> {
        for d in forwarded {
            obj.conforms(d.interface, &d.methods)?;
        }
        Ok(self
            .0
            .publish(obj)
            .expect("a target is published at construction")
            .clone())
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
/// Methods `base` already implements are kept. Every other signature in
/// `sigs` (the target's, so type-aware clients cannot tell the forwarder
/// from the original) becomes a forwarding method. A method in neither is
/// refused by the forwarder itself, with the same
/// [`ObjError::NoSuchMethod`](crate::ObjError::NoSuchMethod) the target
/// would give.
///
/// `wrap` is asked once per installed method what to run around that
/// forward; `None` installs the bare forward.
pub fn forwarding_interface(
    base: Interface,
    sigs: impl IntoIterator<Item = MethodSig>,
    target: Arc<Target>,
    mut wrap: impl FnMut(&'static str) -> Option<WrapFn>,
) -> Interface {
    let mut iface = base;
    let interface = iface.name();
    for sig in sigs {
        if iface.method(sig.name).is_some() {
            continue;
        }
        let (method, target) = (sig.name, target.clone());
        let forward: crate::MethodFn = match wrap(method) {
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
        iface.insert_method(sig, forward);
    }
    iface
}

#[cfg(test)]
mod tests {
    use crate::{
        compose::COMPOSITION_IFACE, interpose::INTERPOSER_IFACE, CompositionBuilder,
        InterposerBuilder, ObjRef, ObjectBuilder, TypeTag, Value,
    };
    use std::sync::Arc;

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
}
