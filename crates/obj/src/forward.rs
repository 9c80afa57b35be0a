//! The forwarding mechanism — written once.
//!
//! An interposer "exports a superset of the original object's interfaces,
//! reimplements those methods it sees fit and forwards the others to the
//! original object" (paper, section 2). Interposers, compositions, method
//! delegation and cross-domain proxies are all that one sentence with a
//! different answer to two questions: *which object is the target right
//! now*, and *what runs around the forwarded call*. [`forwarding_interface`]
//! is the loop they share; [`Forward`] is the handle the code around a call
//! uses to make it.

use std::sync::Arc;

use crate::{
    interface::{CallCache, Interface},
    object::ObjRef,
    typeinfo::MethodSig,
    value::Value,
    ObjResult,
};

/// Finds the object a forwarder currently forwards to, given the forwarder.
type TargetFn = dyn Fn(&ObjRef) -> ObjResult<ObjRef> + Send + Sync;

/// Code run in place of a bare forward: an override, a hook wrapper, a
/// domain crossing. It decides whether, when and with which arguments the
/// forwarded call happens — through the [`Forward`] it is handed.
pub type WrapFn = Arc<dyn Fn(&Forward<'_>, &[Value]) -> ObjResult<Value> + Send + Sync>;

/// One forwarded call in flight: the method being invoked on the forwarder
/// and the cached route to the same method on the current target.
pub struct Forward<'a> {
    this: &'a ObjRef,
    interface: &'a str,
    method: &'a str,
    cache: &'a CallCache,
    target: &'a TargetFn,
}

impl Forward<'_> {
    /// Invokes the forwarded method on the current target.
    ///
    /// The resolution is cached per call site and revalidated against the
    /// forwarder's and the target's export generations, so a retarget, a
    /// child replacement or a re-export on the target takes effect on the
    /// very next call; a warm forward takes no lock and allocates nothing.
    #[inline]
    pub fn call(&self, args: &[Value]) -> ObjResult<Value> {
        self.cache.invoke(
            self.this,
            || (self.target)(self.this),
            self.interface,
            self.method,
            args,
        )
    }

    /// The forwarding object the call arrived at (its instance data is
    /// where an override keeps state).
    pub fn this(&self) -> &ObjRef {
        self.this
    }

    /// Name of the interface being forwarded.
    pub fn interface(&self) -> &str {
        self.interface
    }

    /// Name of the method being forwarded.
    pub fn method(&self) -> &str {
        self.method
    }
}

/// Completes `base` into an interface that forwards to another object's
/// interface of the same name.
///
/// Methods `base` already implements are kept. Every other signature in
/// `sigs` (the target's, so type-aware clients cannot tell the forwarder
/// from the original) becomes a method with its own forward cache, and one
/// cached fallback forwards methods the target grows later.
///
/// `target` finds the current target from the forwarder; it only runs on a
/// cache miss. A forwarder whose answer can change bumps its own export
/// generation when it does ([`Object::bump_export_generation`]).
///
/// `wrap` is asked once per installed method (`Some(name)`) and once for
/// the fallback (`None`) what to run around that forward; `None` installs
/// the bare forward.
///
/// [`Object::bump_export_generation`]: crate::object::Object::bump_export_generation
pub fn forwarding_interface(
    base: Interface,
    sigs: impl IntoIterator<Item = MethodSig>,
    target: impl Fn(&ObjRef) -> ObjResult<ObjRef> + Send + Sync + 'static,
    mut wrap: impl FnMut(Option<&str>) -> Option<WrapFn>,
) -> Interface {
    /// One call site: its own cache, the shared route to the target.
    fn hop(
        interface: Arc<str>,
        target: Arc<TargetFn>,
        wrap: Option<WrapFn>,
    ) -> impl Fn(&ObjRef, &str, &[Value]) -> ObjResult<Value> + Send + Sync {
        let cache = CallCache::new();
        move |this, method, args| {
            let forward = Forward {
                this,
                interface: &interface,
                method,
                cache: &cache,
                target: &*target,
            };
            match &wrap {
                // Unwrapped hops skip the indirect call and capture block.
                None => forward.call(args),
                Some(wrap) => wrap(&forward, args),
            }
        }
    }

    let mut iface = base;
    let name: Arc<str> = iface.name().into();
    let target: Arc<TargetFn> = Arc::new(target);
    for sig in sigs {
        if iface.has_method(&sig.name) {
            continue;
        }
        let forward = hop(name.clone(), target.clone(), wrap(Some(&sig.name)));
        let method = sig.name.clone();
        iface.insert_method(
            sig,
            Arc::new(move |this: &ObjRef, args: &[Value]| forward(this, &method, args)),
        );
    }
    iface.set_fallback(Arc::new(hop(name, target, wrap(None))));
    iface
}
