//! Named interfaces: the only way to operate on an object.
//!
//! "Each object exports one or more named interfaces. … Objects can be
//! operated on only through the methods in the interfaces they export."
//! (paper, section 2). Interfaces being *named* is what allows them to
//! evolve: adding a `measurement` interface to an RPC object does not change
//! the `rpc` interface its existing users bound to.

use std::{collections::BTreeMap, sync::Arc};

use crate::{
    error::ObjError,
    object::{ObjRef, ResolvedMethod},
    snapcell::SnapCell,
    typeinfo::{InterfaceDescriptor, MethodSig},
    value::Value,
    ObjResult,
};

/// The implementation of one method.
///
/// The first argument is the receiving object instance (its "state pointer"
/// in the paper's terms); the slice carries the type-checked arguments.
pub type MethodFn = Arc<dyn Fn(&ObjRef, &[Value]) -> ObjResult<Value> + Send + Sync>;

/// A fallback handler invoked when a named method is not present.
///
/// This is the mechanism behind *method delegation* (paper section 2): an
/// interface may delegate methods it does not implement to another object.
pub type FallbackFn = Arc<dyn Fn(&ObjRef, &str, &[Value]) -> ObjResult<Value> + Send + Sync>;

/// One entry of an interface: signature plus implementation.
#[derive(Clone)]
pub struct Method {
    /// Type information for the method.
    pub sig: MethodSig,
    /// The code to run.
    pub imp: MethodFn,
}

impl std::fmt::Debug for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Method")
            .field("sig", &self.sig)
            .finish_non_exhaustive()
    }
}

impl Method {
    /// Runs this method on behalf of `this` with full signature checking.
    ///
    /// This is the one dispatch kernel shared by every call path — slow
    /// lookup, dispatch-cache hit, bound methods and cached forwarders all
    /// funnel through it, so fast and slow paths cannot drift apart.
    #[inline]
    pub fn call(&self, this: &ObjRef, args: &[Value]) -> ObjResult<Value> {
        self.sig.check_args(args)?;
        let result = (self.imp)(this, args)?;
        self.sig.check_result(&result)?;
        Ok(result)
    }
}

/// A named set of methods with type information.
///
/// Methods are stored behind `Arc` so resolved handles can be cached by the
/// dispatch fast path (per-object caches, the cache behind every
/// [`Forward`](crate::forward::Forward)) without cloning signatures.
#[derive(Clone)]
pub struct Interface {
    name: String,
    methods: BTreeMap<String, Arc<Method>>,
    fallback: Option<FallbackFn>,
}

impl std::fmt::Debug for Interface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interface")
            .field("name", &self.name)
            .field("methods", &self.methods.keys().collect::<Vec<_>>())
            .field("has_fallback", &self.fallback.is_some())
            .finish()
    }
}

impl Interface {
    /// Creates an empty interface with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Interface {
            name: name.into(),
            methods: BTreeMap::new(),
            fallback: None,
        }
    }

    /// The interface name, unique within its exporting object.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds (or replaces) a method.
    pub fn insert_method(&mut self, sig: MethodSig, imp: MethodFn) {
        self.methods
            .insert(sig.name.clone(), Arc::new(Method { sig, imp }));
    }

    /// Returns the directly implemented method `name`, if any. Delegated
    /// (fallback-only) methods are not returned — they have no resolvable
    /// handle.
    pub fn method(&self, name: &str) -> Option<&Arc<Method>> {
        self.methods.get(name)
    }

    /// Sets the delegation fallback, called for any method not present.
    pub fn set_fallback(&mut self, fallback: FallbackFn) {
        self.fallback = Some(fallback);
    }

    /// Returns the delegation fallback, if any. Interfaces are immutable
    /// once exported (re-exports replace the whole `Arc<Interface>`), so a
    /// dispatch cache may pin this handler for methods it has proven
    /// absent from the method table — valid until the export generation
    /// moves.
    pub fn fallback_fn(&self) -> Option<&FallbackFn> {
        self.fallback.as_ref()
    }

    /// Returns true if the interface has its own entry for `method`
    /// (delegated methods do not count).
    pub fn has_method(&self, method: &str) -> bool {
        self.methods.contains_key(method)
    }

    /// Returns the signature of `method`, if implemented directly.
    pub fn signature(&self, method: &str) -> Option<&MethodSig> {
        self.methods.get(method).map(|m| &m.sig)
    }

    /// Number of directly implemented methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Flattens this interface into serialisable type information.
    pub fn descriptor(&self) -> InterfaceDescriptor {
        InterfaceDescriptor {
            interface: self.name.clone(),
            methods: self.methods.values().map(|m| m.sig.clone()).collect(),
        }
    }

    /// Invokes `method` on behalf of `this`, checking arguments and result
    /// against the method signature. Falls back to the delegation handler
    /// when the method is not directly implemented.
    ///
    /// Arguments are passed through borrowed (`&[Value]`) end to end: no
    /// hop in the dispatch stack re-collects them into a fresh `Vec`.
    pub fn call(&self, this: &ObjRef, method: &str, args: &[Value]) -> ObjResult<Value> {
        match self.methods.get(method) {
            Some(m) => m.call(this, args),
            None => match &self.fallback {
                Some(fb) => fb(this, method, args),
                None => Err(ObjError::NoSuchMethod {
                    interface: self.name.clone(),
                    method: method.to_owned(),
                }),
            },
        }
    }
}

/// A pre-resolved method: the paper's "run time inline techniques"
/// (section 2) for when dispatch overhead matters.
///
/// Binding snapshots the method's signature and implementation, skipping
/// both interface and method-table lookups on every call. The trade-off
/// is explicit: a bound method does **not** observe later replacement of
/// the method on the interface — callers give up one step of late binding
/// for speed, which is why this is an opt-in fast path and not the
/// default.
#[derive(Clone)]
pub struct BoundMethod {
    method: Arc<Method>,
    this: ObjRef,
}

impl BoundMethod {
    /// Invokes the bound method with full signature checking. Arguments are
    /// borrowed straight through to the implementation — no per-call clone.
    pub fn call(&self, args: &[Value]) -> ObjResult<Value> {
        self.method.call(&self.this, args)
    }

    /// Invokes without argument/result type checks — the fully inlined
    /// variant (the signature was checked when the call site was
    /// compiled, in the paper's framing).
    pub fn call_unchecked_types(&self, args: &[Value]) -> ObjResult<Value> {
        (self.method.imp)(&self.this, args)
    }

    /// The bound signature.
    pub fn signature(&self) -> &MethodSig {
        &self.method.sig
    }
}

impl Interface {
    /// Pre-resolves `method` against `this`, returning the inline-call
    /// handle. Returns `None` for delegated (fallback-only) methods —
    /// those cannot be snapshotted without freezing the delegation target.
    ///
    /// Binding shares the interface's `Arc<Method>` entry; nothing is
    /// cloned beyond two reference counts.
    pub fn bind_method(&self, this: &ObjRef, method: &str) -> Option<BoundMethod> {
        self.methods.get(method).map(|m| BoundMethod {
            method: m.clone(),
            this: this.clone(),
        })
    }
}

/// A small cache for forwarding a call to another object — the per-hop
/// "run time inline technique" behind every
/// [`Forward`](crate::forward::Forward).
///
/// The cached resolution (target handle + method handle) is revalidated on
/// every call against two export-generation counters
/// ([`Object::export_generation`](crate::object::Object::export_generation)):
///
/// * the **holder**'s — the forwarding object, whose topology can change
///   (an interposer being retargeted, a composition child being
///   replaced); forwarders bump their generation on such changes, and
/// * the **target**'s — bumped when the target re-exports or revokes an
///   interface.
///
/// A stale entry therefore misses cleanly and re-resolves; it can never
/// call an outdated implementation. On a hit the forward costs one atomic
/// snapshot load, two atomic generation loads and a short scan — no lock,
/// no name-space walk, no state downcast, no method-table lookup, and no
/// allocation.
#[derive(Default)]
pub(crate) struct CallCache {
    slot: SnapCell<Vec<CachedCall>>,
}

/// Pinned resolutions a [`CallCache`] holds: enough for a forwarding
/// fallback alternating between a few hot methods. Fresh entries are never
/// evicted; call sites spreading over more methods serve the excess
/// through the target's own dispatch cache instead.
const CALL_CACHE_SLOTS: usize = 4;

#[derive(Clone)]
struct CachedCall {
    holder_gen: u64,
    method: String,
    target: ObjRef,
    resolved: ResolvedMethod,
}

impl CallCache {
    /// Creates an empty cache. One `CallCache` serves one forwarding call
    /// site (a fixed interface; the method varies only in a fallback).
    pub fn new() -> Self {
        CallCache::default()
    }

    /// Forwards `interface::method(args)` to the object produced by
    /// `resolve_target`, caching the resolution.
    ///
    /// `holder` is the forwarder whose generation guards the cached
    /// *target*. `resolve_target` is only run on a cache miss. Methods
    /// served by a delegation fallback on the target are forwarded
    /// uncached — they have no stable handle to pin.
    #[inline]
    pub fn invoke(
        &self,
        holder: &ObjRef,
        resolve_target: impl FnOnce() -> ObjResult<ObjRef>,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> ObjResult<Value> {
        let holder_gen = holder.export_generation();
        // Lock-free fast path: one snapshot load plus generation checks.
        // The snapshot stays valid for the duration of the call even if a
        // concurrent miss republishes (see `snapcell`).
        if let Some(entries) = self.slot.load() {
            if let Some(c) = entries.iter().find(|c| {
                c.holder_gen == holder_gen && c.resolved.is_current(&c.target) && c.method == method
            }) {
                return c.resolved.call(&c.target, args);
            }
        }
        self.invoke_miss(holder_gen, resolve_target, interface, method, args)
    }

    /// Slow path of [`CallCache::invoke`]: resolve the current target and
    /// pin its method handle. Stale entries are dropped on republish;
    /// fresh ones are never evicted, bounding snapshot churn.
    #[cold]
    fn invoke_miss(
        &self,
        holder_gen: u64,
        resolve_target: impl FnOnce() -> ObjResult<ObjRef>,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> ObjResult<Value> {
        let target = resolve_target()?;
        match target.resolve_method(interface, method) {
            Some(resolved) => {
                let fresh = |c: &&CachedCall| {
                    c.holder_gen == holder_gen && c.resolved.is_current(&c.target)
                };
                let mut entries: Vec<CachedCall> = match self.slot.load() {
                    Some(t) => {
                        if t.iter().filter(fresh).count() >= CALL_CACHE_SLOTS {
                            // Full of current resolutions for other
                            // methods: serve uncached, no churn.
                            return resolved.call(&target, args);
                        }
                        t.iter().filter(fresh).cloned().collect()
                    }
                    None => Vec::with_capacity(1),
                };
                entries.push(CachedCall {
                    holder_gen,
                    method: method.to_owned(),
                    target: target.clone(),
                    resolved: resolved.clone(),
                });
                self.slot.publish(entries);
                resolved.call(&target, args)
            }
            None => target.invoke(interface, method, args),
        }
    }
}

impl std::fmt::Debug for CallCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached = self.slot.load().map_or(0, Vec::len);
        f.debug_struct("CallCache")
            .field("cached", &cached)
            .finish()
    }
}

/// Builds a [`MethodFn`] from a plain closure, for use outside the
/// [`ObjectBuilder`](crate::ObjectBuilder) fluent API.
pub fn method_fn<F>(f: F) -> MethodFn
where
    F: Fn(&ObjRef, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
{
    Arc::new(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectBuilder, TypeTag};

    fn dummy() -> ObjRef {
        ObjectBuilder::new("dummy").build()
    }

    #[test]
    fn call_checks_signature() {
        let mut iface = Interface::new("math");
        iface.insert_method(
            MethodSig::new("double", &[TypeTag::Int], TypeTag::Int),
            method_fn(|_, args| Ok(Value::Int(args[0].as_int()? * 2))),
        );
        let this = dummy();
        assert_eq!(
            iface.call(&this, "double", &[Value::Int(21)]).unwrap(),
            Value::Int(42)
        );
        assert!(iface.call(&this, "double", &[]).is_err());
        assert!(iface
            .call(&this, "double", &[Value::Str("x".into())])
            .is_err());
        assert!(matches!(
            iface.call(&this, "triple", &[]),
            Err(ObjError::NoSuchMethod { .. })
        ));
    }

    #[test]
    fn call_checks_result_type() {
        let mut iface = Interface::new("bad");
        iface.insert_method(
            MethodSig::new("lie", &[], TypeTag::Int),
            method_fn(|_, _| Ok(Value::Unit)),
        );
        let err = iface.call(&dummy(), "lie", &[]).unwrap_err();
        assert!(matches!(err, ObjError::TypeMismatch { .. }));
    }

    #[test]
    fn fallback_handles_missing_methods() {
        let mut iface = Interface::new("fwd");
        iface.set_fallback(Arc::new(|_, method, _| Ok(Value::Str(method.to_owned()))));
        assert_eq!(
            iface.call(&dummy(), "anything", &[]).unwrap(),
            Value::Str("anything".into())
        );
    }

    #[test]
    fn descriptor_lists_sorted_methods() {
        let mut iface = Interface::new("dev");
        for name in ["write", "read", "ioctl"] {
            iface.insert_method(
                MethodSig::new(name, &[], TypeTag::Unit),
                method_fn(|_, _| Ok(Value::Unit)),
            );
        }
        let d = iface.descriptor();
        let names: Vec<_> = d.methods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["ioctl", "read", "write"]);
    }

    #[test]
    fn bound_methods_skip_lookup_but_check_types() {
        let obj = crate::ObjectBuilder::new("c")
            .state(0i64)
            .interface("ctr", |i| {
                i.method("incr", &[TypeTag::Int], TypeTag::Int, |this, args| {
                    let by = args[0].as_int()?;
                    this.with_state(|n: &mut i64| {
                        *n += by;
                        Ok(Value::Int(*n))
                    })
                })
            })
            .build();
        let bound = obj
            .interface("ctr")
            .unwrap()
            .bind_method(&obj, "incr")
            .unwrap();
        assert_eq!(bound.call(&[Value::Int(5)]).unwrap(), Value::Int(5));
        assert_eq!(bound.call(&[Value::Int(2)]).unwrap(), Value::Int(7));
        assert!(bound.call(&[Value::Str("x".into())]).is_err());
        assert_eq!(
            bound.call_unchecked_types(&[Value::Int(1)]).unwrap(),
            Value::Int(8)
        );
        assert_eq!(bound.signature().name, "incr");
        // Missing and delegated methods cannot be bound.
        assert!(obj
            .interface("ctr")
            .unwrap()
            .bind_method(&obj, "nope")
            .is_none());
    }

    #[test]
    fn bound_method_does_not_see_later_replacement() {
        // The documented trade-off: binding freezes the implementation.
        let obj = crate::ObjectBuilder::new("v")
            .interface("v", |i| {
                i.method("get", &[], TypeTag::Int, |_, _| Ok(Value::Int(1)))
            })
            .build();
        let bound = obj
            .interface("v")
            .unwrap()
            .bind_method(&obj, "get")
            .unwrap();
        let mut replacement = Interface::new("v");
        replacement.insert_method(
            MethodSig::new("get", &[], TypeTag::Int),
            method_fn(|_, _| Ok(Value::Int(2))),
        );
        obj.export_interface(replacement);
        assert_eq!(obj.invoke("v", "get", &[]).unwrap(), Value::Int(2));
        assert_eq!(bound.call(&[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn insert_method_replaces() {
        let mut iface = Interface::new("v");
        iface.insert_method(
            MethodSig::new("get", &[], TypeTag::Int),
            method_fn(|_, _| Ok(Value::Int(1))),
        );
        iface.insert_method(
            MethodSig::new("get", &[], TypeTag::Int),
            method_fn(|_, _| Ok(Value::Int(2))),
        );
        assert_eq!(iface.method_count(), 1);
        assert_eq!(iface.call(&dummy(), "get", &[]).unwrap(), Value::Int(2));
    }
}
