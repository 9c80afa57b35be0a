//! Interposing agents.
//!
//! "Building an interposing agent … consists of building an interposing
//! object (i.e., one that exports a superset of the original object's
//! interfaces, reimplements those methods it sees fit and forwards the
//! others to the original object) and replace the object handle in the name
//! space." (paper, section 2).
//!
//! This module provides the first half — building the interposing object.
//! Replacing the handle in the name space is done by the directory service
//! (`paramecium-core`), which makes all further lookups resolve to the
//! agent.
//!
//! # Writing a layer
//!
//! A layer reimplements the methods it cares about and forwards the rest;
//! it never restates a method it merely passes through — an enumerated
//! pass-through goes stale the day the interface below grows a method.
//!
//! - **Retargetable agent** (monitor, tracer, fault injector — anything
//!   the directory service may slide in front of a live object): build it
//!   with [`InterposerBuilder`]. Overrides get a [`Forward`] to the method
//!   they replace; everything else, on every interface of the target, is
//!   forwarded, and `interposer.retarget` re-points the lot.
//! - **Fixed-target stateful layer** (retry, cache, ARP — built over one
//!   lower object for life, with instance data of its own): declare the
//!   reimplemented methods on an ordinary interface and hand it to
//!   [`delegate_interface`](crate::delegate_interface) with the lower
//!   object.
//!
//! Both are [`forwarding_interface`] underneath, as are compositions and
//! cross-domain proxies.

use std::{collections::BTreeMap, sync::Arc};

use crate::{
    builder::ObjectBuilder,
    forward::{forwarding_interface, Forward, WrapFn},
    interface::Interface,
    object::ObjRef,
    value::Value,
    ObjResult,
};

/// A hook observing every forwarded invocation.
///
/// Receives the interface name, method name and arguments. Hooks are how
/// monitoring tools (call tracers, packet counters, profilers) are built.
pub type ObserveFn = Arc<dyn Fn(&str, &str, &[Value]) + Send + Sync>;

/// Instance data of an interposer: the object it wraps.
struct InterposerState {
    target: ObjRef,
}

/// Administrative interface exported by every interposer.
pub const INTERPOSER_IFACE: &str = "interposer";

/// Builds an interposing agent around a target object.
///
/// The agent exports every interface of the target (a superset if
/// [`InterposerBuilder::extra_interface`] is used), forwarding every method
/// it does not override. Hooks run around forwarded calls.
///
/// # Examples
///
/// ```
/// use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
/// use paramecium_obj::{InterposerBuilder, ObjectBuilder, TypeTag, Value};
///
/// let target = ObjectBuilder::new("svc")
///     .interface("svc", |i| {
///         i.method("ping", &[], TypeTag::Str, |_, _| Ok(Value::Str("pong".into())))
///     })
///     .build();
///
/// let calls = Arc::new(AtomicU64::new(0));
/// let c = calls.clone();
/// let agent = InterposerBuilder::new(target)
///     .before(move |_iface, _method, _args| { c.fetch_add(1, Ordering::Relaxed); })
///     .build();
///
/// assert_eq!(agent.invoke("svc", "ping", &[]).unwrap(), Value::Str("pong".into()));
/// assert_eq!(calls.load(Ordering::Relaxed), 1);
/// ```
pub struct InterposerBuilder {
    target: ObjRef,
    class: String,
    overrides: BTreeMap<(String, String), WrapFn>,
    extra: Vec<Interface>,
    before: Vec<ObserveFn>,
    after: Vec<ObserveFn>,
}

impl InterposerBuilder {
    /// Starts an interposer around `target`.
    pub fn new(target: ObjRef) -> Self {
        let class = format!("interposer<{}>", target.class());
        InterposerBuilder {
            target,
            class,
            overrides: BTreeMap::new(),
            extra: Vec::new(),
            before: Vec::new(),
            after: Vec::new(),
        }
    }

    /// Overrides the class name of the agent.
    pub fn class(mut self, class: impl Into<String>) -> Self {
        self.class = class.into();
        self
    }

    /// Reimplements one method of one interface.
    ///
    /// `f` receives the [`Forward`] of the method it replaces: call it to
    /// modify-and-forward (it follows `retarget`), ignore it to answer
    /// alone; [`Forward::this`] is the *interposer*.
    ///
    /// # Panics
    ///
    /// [`InterposerBuilder::build`] panics if the target exports no such
    /// method — an override that can never run is a bug at the call site.
    pub fn override_method<F>(mut self, interface: &str, method: &str, f: F) -> Self
    where
        F: Fn(&Forward<'_>, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
    {
        self.overrides
            .insert((interface.to_owned(), method.to_owned()), Arc::new(f));
        self
    }

    /// Exports an additional interface not present on the target (the
    /// "superset" part of the paper's definition).
    pub fn extra_interface(mut self, iface: Interface) -> Self {
        self.extra.push(iface);
        self
    }

    /// Adds a hook that runs before every forwarded or overridden call.
    pub fn before(mut self, f: impl Fn(&str, &str, &[Value]) + Send + Sync + 'static) -> Self {
        self.before.push(Arc::new(f));
        self
    }

    /// Adds a hook that runs after every forwarded or overridden call.
    pub fn after(mut self, f: impl Fn(&str, &str, &[Value]) + Send + Sync + 'static) -> Self {
        self.after.push(Arc::new(f));
        self
    }

    /// Builds the agent object.
    pub fn build(mut self) -> ObjRef {
        let mut builder = ObjectBuilder::new(self.class).state(InterposerState {
            target: self.target.clone(),
        });
        let hooks = (!self.before.is_empty() || !self.after.is_empty())
            .then(|| Arc::new((self.before, self.after)));

        for desc in self.target.descriptors() {
            let iface = forwarding_interface(
                Interface::new(desc.interface.clone()),
                desc.methods,
                interposer_target,
                |method| {
                    let body = method.and_then(|m| {
                        self.overrides
                            .remove(&(desc.interface.clone(), m.to_owned()))
                    });
                    match &hooks {
                        None => body,
                        Some(hooks) => Some(hooked(hooks.clone(), body)),
                    }
                },
            );
            builder = builder.raw_interface(iface);
        }
        if let Some((interface, method)) = self.overrides.keys().next() {
            panic!(
                "override_method(\"{interface}\", \"{method}\"): `{}` exports no such method",
                self.target.class()
            );
        }

        for iface in self.extra {
            builder = builder.raw_interface(iface);
        }

        builder = builder.raw_interface(admin_interface());
        builder.build()
    }
}

/// Runs the `before` hooks, then `body` (the bare forward when `None`),
/// then the `after` hooks.
fn hooked(hooks: Arc<(Vec<ObserveFn>, Vec<ObserveFn>)>, body: Option<WrapFn>) -> WrapFn {
    Arc::new(move |forward: &Forward<'_>, args: &[Value]| {
        let (before, after) = &*hooks;
        for h in before {
            h(forward.interface(), forward.method(), args);
        }
        let r = match &body {
            Some(body) => body(forward, args),
            None => forward.call(args),
        };
        for h in after {
            h(forward.interface(), forward.method(), args);
        }
        r
    })
}

/// Returns the object an interposer currently wraps.
pub fn interposer_target(agent: &ObjRef) -> ObjResult<ObjRef> {
    agent.with_state(|s: &mut InterposerState| Ok(s.target.clone()))
}

/// Builds the `interposer` administrative interface (`target`, `retarget`).
fn admin_interface() -> Interface {
    let mut iface = Interface::new(INTERPOSER_IFACE);
    iface.insert_method(
        crate::typeinfo::MethodSig::new("target", &[], crate::typeinfo::TypeTag::Handle),
        Arc::new(|this: &ObjRef, _: &[Value]| interposer_target(this).map(Value::Handle)),
    );
    iface.insert_method(
        crate::typeinfo::MethodSig::new(
            "retarget",
            &[crate::typeinfo::TypeTag::Handle],
            crate::typeinfo::TypeTag::Handle,
        ),
        Arc::new(|this: &ObjRef, args: &[Value]| {
            let new = args[0].as_handle()?.clone();
            let old = this
                .with_state(|s: &mut InterposerState| Ok(std::mem::replace(&mut s.target, new)))?;
            // Invalidate every per-hop forward cache pointing at the old
            // target: they revalidate against the agent's generation.
            this.bump_export_generation();
            Ok(Value::Handle(old))
        }),
    );
    iface
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{typeinfo::TypeTag, value::Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn target() -> ObjRef {
        ObjectBuilder::new("svc")
            .state(Vec::<i64>::new())
            .interface("svc", |i| {
                i.method("push", &[TypeTag::Int], TypeTag::Unit, |this, args| {
                    let v = args[0].as_int()?;
                    this.with_state(|s: &mut Vec<i64>| {
                        s.push(v);
                        Ok(Value::Unit)
                    })
                })
                .method("sum", &[], TypeTag::Int, |this, _| {
                    this.with_state(|s: &mut Vec<i64>| Ok(Value::Int(s.iter().sum())))
                })
            })
            .build()
    }

    #[test]
    fn agent_is_transparent_for_unoverridden_methods() {
        let t = target();
        let agent = InterposerBuilder::new(t.clone()).build();
        agent.invoke("svc", "push", &[Value::Int(4)]).unwrap();
        agent.invoke("svc", "push", &[Value::Int(5)]).unwrap();
        assert_eq!(agent.invoke("svc", "sum", &[]).unwrap(), Value::Int(9));
        // State lives in the target, not the agent.
        assert_eq!(t.invoke("svc", "sum", &[]).unwrap(), Value::Int(9));
    }

    #[test]
    fn overrides_replace_behaviour() {
        let agent = InterposerBuilder::new(target())
            .override_method("svc", "sum", |_, _| Ok(Value::Int(-1)))
            .build();
        agent.invoke("svc", "push", &[Value::Int(4)]).unwrap();
        assert_eq!(agent.invoke("svc", "sum", &[]).unwrap(), Value::Int(-1));
    }

    #[test]
    fn override_can_modify_and_forward() {
        // Doubles every pushed value, then forwards.
        let agent = InterposerBuilder::new(target())
            .override_method("svc", "push", |forward, args| {
                let v = args[0].as_int()?;
                forward.call(&[Value::Int(v * 2)])
            })
            .build();
        agent.invoke("svc", "push", &[Value::Int(3)]).unwrap();
        assert_eq!(agent.invoke("svc", "sum", &[]).unwrap(), Value::Int(6));
    }

    #[test]
    #[should_panic(expected = "override_method(\"svc\", \"psuh\")")]
    fn override_for_a_method_the_target_lacks_is_refused_at_build() {
        // Dropping it silently would leave the agent fully transparent.
        InterposerBuilder::new(target())
            .override_method("svc", "psuh", |_, _| Ok(Value::Unit))
            .build();
    }

    #[test]
    fn hooks_observe_all_calls() {
        let count = Arc::new(AtomicU64::new(0));
        let c1 = count.clone();
        let c2 = count.clone();
        let agent = InterposerBuilder::new(target())
            .before(move |_, _, _| {
                c1.fetch_add(1, Ordering::Relaxed);
            })
            .after(move |_, _, _| {
                c2.fetch_add(10, Ordering::Relaxed);
            })
            .build();
        agent.invoke("svc", "push", &[Value::Int(1)]).unwrap();
        agent.invoke("svc", "sum", &[]).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 22);
    }

    #[test]
    fn superset_interfaces_are_exported() {
        let mut extra = Interface::new("stats");
        extra.insert_method(
            crate::typeinfo::MethodSig::new("zero", &[], TypeTag::Int),
            Arc::new(|_: &ObjRef, _: &[Value]| Ok(Value::Int(0))),
        );
        let agent = InterposerBuilder::new(target())
            .extra_interface(extra)
            .build();
        assert!(agent.has_interface("svc"));
        assert!(agent.has_interface("stats"));
        assert_eq!(agent.invoke("stats", "zero", &[]).unwrap(), Value::Int(0));
    }

    #[test]
    fn retarget_redirects_existing_clients() {
        let a = target();
        let b = target();
        let agent = InterposerBuilder::new(a.clone()).build();
        agent.invoke("svc", "push", &[Value::Int(1)]).unwrap();
        agent
            .invoke(INTERPOSER_IFACE, "retarget", &[Value::Handle(b.clone())])
            .unwrap();
        agent.invoke("svc", "push", &[Value::Int(2)]).unwrap();
        assert_eq!(a.invoke("svc", "sum", &[]).unwrap(), Value::Int(1));
        assert_eq!(b.invoke("svc", "sum", &[]).unwrap(), Value::Int(2));
    }

    #[test]
    fn agents_stack() {
        let inner = InterposerBuilder::new(target()).build();
        let outer = InterposerBuilder::new(inner).build();
        outer.invoke("svc", "push", &[Value::Int(8)]).unwrap();
        assert_eq!(outer.invoke("svc", "sum", &[]).unwrap(), Value::Int(8));
    }
}
