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
//!
//! # Counting calls
//!
//! An object keeps no call statistics of its own. Counting the calls that
//! reach an object is an interposer with a
//! [`before`](InterposerBuilder::before) hook that bumps a counter, and
//! only the objects someone watches pay for it.

use std::{collections::BTreeMap, sync::Arc};

use crate::{
    builder::{InterfaceBuilder, ObjectBuilder},
    forward::{forwarding_interface, Forward, Target, WrapFn},
    interface::Interface,
    object::ObjRef,
    typeinfo::TypeTag,
    value::Value,
    ObjResult,
};

/// A hook observing every forwarded invocation.
///
/// Receives the interface name, method name and arguments. Hooks are how
/// monitoring tools (call tracers, packet counters, profilers) are built.
pub type ObserveFn = Arc<dyn Fn(&str, &str, &[Value]) + Send + Sync>;

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
    overrides: BTreeMap<(&'static str, &'static str), WrapFn>,
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
    /// modify-and-forward (it follows `retarget`), or ignore it to answer
    /// alone.
    ///
    /// # Panics
    ///
    /// [`InterposerBuilder::build`] panics if the agent forwards no such
    /// method (the target lacks it, or an extra or the admin interface
    /// replaces its interface) — an override that can never run is a bug
    /// at the call site.
    pub fn override_method<F>(mut self, interface: &'static str, method: &'static str, f: F) -> Self
    where
        F: Fn(&Forward<'_>, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
    {
        self.overrides.insert((interface, method), Arc::new(f));
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
        let mut builder = ObjectBuilder::new(self.class);
        // Every interface of the target except those the extra ones and
        // the admin interface replace: what a new target must export.
        let forwarded = self
            .target
            .interface_names()
            .filter(|&name| name != INTERPOSER_IFACE && self.extra.iter().all(|e| e.name() != name))
            .collect();
        let target = Target::new(self.target.clone(), forwarded);
        let hooks = (!self.before.is_empty() || !self.after.is_empty())
            .then(|| Arc::new((self.before, self.after)));

        for &name in target.forwarded() {
            builder = builder.raw_interface(forwarding_interface(
                Interface::new(name),
                target.clone(),
                |method| {
                    let body = self.overrides.remove(&(name, method));
                    match &hooks {
                        None => body,
                        Some(hooks) => Some(hooked(hooks.clone(), body)),
                    }
                },
            ));
        }
        if let Some((interface, method)) = self.overrides.keys().next() {
            panic!(
                "override_method(\"{interface}\", \"{method}\"): an agent over `{}` forwards no such method",
                self.target.class()
            );
        }
        for iface in self.extra {
            builder = builder.raw_interface(iface);
        }

        builder = builder.raw_interface(admin_interface(target));
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

/// Builds the `interposer` administrative interface (`target`, `retarget`)
/// over the target every forwarding entry of the agent reads.
fn admin_interface(target: Arc<Target>) -> Interface {
    let current = target.clone();
    InterfaceBuilder::new(INTERPOSER_IFACE)
        .method("target", &[], TypeTag::Handle, move |_, _| {
            Ok(Value::Handle(current.get().clone()))
        })
        .method(
            "retarget",
            &[TypeTag::Handle],
            TypeTag::Handle,
            move |_, args| Ok(Value::Handle(target.set(args[0].as_handle()?.clone())?)),
        )
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
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
