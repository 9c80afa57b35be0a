//! Object instances.
//!
//! "An object is conceptually a collection of methods and instance data"
//! (paper, section 2). Objects are coarse grained — a scheduler, an IP
//! layer, a device driver, a memory allocator — and are always manipulated
//! through the named interfaces they export.

use std::{
    any::Any,
    collections::BTreeMap,
    sync::{
        atomic::{AtomicU64, Ordering},
        Arc,
    },
};

use parking_lot::RwLock;

use crate::{
    error::ObjError,
    interface::{FallbackFn, Interface, Method},
    snapcell::SnapCell,
    trylock::TryLock,
    typeinfo::{InterfaceDescriptor, MethodSig},
    value::Value,
    ObjResult,
};

/// A shared reference to an object instance — the paper's "object handle".
pub type ObjRef = Arc<Object>;

/// Slots in the per-object dispatch cache. Eight covers every hot loop in
/// the tree (most call sites hammer one or two methods per object) while
/// keeping the linear revalidation scan trivially cheap. Objects invoking
/// more distinct methods than this serve the excess from the slow path —
/// the cache never evicts a fresh entry, which also bounds snapshot
/// republishing (see `snapcell`).
const DISPATCH_CACHE_SLOTS: usize = 8;

/// What a dispatch-cache entry resolved to.
///
/// Directly implemented methods pin their `Arc<Method>`. Methods served by
/// a delegation fallback pin the interface's fallback handler instead:
/// interfaces are immutable once exported (a re-export swaps the whole
/// `Arc<Interface>` and bumps the generation), so "absent from the method
/// table at generation g" is a stable fact — delegated calls stop
/// re-walking the interface table on every hit.
#[derive(Clone)]
enum CachedDispatch {
    Direct(Arc<Method>),
    Fallback(FallbackFn),
}

/// One pinned `(interface, method)` resolution, valid while the object's
/// export generation still matches `gen`.
#[derive(Clone)]
struct DispatchEntry {
    gen: u64,
    interface: String,
    method: String,
    imp: CachedDispatch,
}

/// An object instance: instance data plus exported interfaces.
pub struct Object {
    /// Class (component) name, e.g. `"nic-driver"`. Not unique.
    class: String,
    /// Instance name assigned when registered in a name space, if any.
    instance_name: RwLock<Option<String>>,
    /// Instance data. Methods downcast it via [`Object::with_state`].
    /// Guarded by a spin lock: state critical sections are short, never
    /// re-entrant (see [`Object::with_state`]) and effectively uncontended
    /// in the deterministic simulation, so the single-swap acquire keeps
    /// state access off the dispatch path's cost ledger.
    state: TryLock<Box<dyn Any + Send>>,
    /// Exported interfaces by name.
    interfaces: RwLock<BTreeMap<String, Arc<Interface>>>,
    /// Total method invocations through [`Object::invoke`].
    invocations: AtomicU64,
    /// Export generation: bumped whenever the set of exported interfaces
    /// changes (or a wrapper's forwarding topology changes, see
    /// [`Object::bump_export_generation`]). Cached method handles carry the
    /// generation they were resolved at and miss cleanly once it moves.
    export_gen: AtomicU64,
    /// Pinned method resolutions serving [`Object::invoke`]'s fast path:
    /// an immutable snapshot republished (cold path only) when a
    /// resolution is learned or invalidated. Readers pay one atomic load.
    dispatch_cache: SnapCell<Vec<DispatchEntry>>,
}

impl std::fmt::Debug for Object {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Object")
            .field("class", &self.class)
            .field("instance_name", &*self.instance_name.read())
            .field(
                "interfaces",
                &self.interfaces.read().keys().cloned().collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl Object {
    /// Creates an object with the given class name, instance state and
    /// interfaces. Most callers use [`ObjectBuilder`](crate::ObjectBuilder)
    /// instead.
    pub fn new(
        class: impl Into<String>,
        state: Box<dyn Any + Send>,
        interfaces: impl IntoIterator<Item = Interface>,
    ) -> ObjRef {
        Arc::new(Object {
            class: class.into(),
            instance_name: RwLock::new(None),
            state: TryLock::new(state),
            interfaces: RwLock::new(
                interfaces
                    .into_iter()
                    .map(|i| (i.name().to_owned(), Arc::new(i)))
                    .collect(),
            ),
            invocations: AtomicU64::new(0),
            export_gen: AtomicU64::new(0),
            dispatch_cache: SnapCell::new(),
        })
    }

    /// The class (component type) name.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// The instance name under which this object was last registered,
    /// if any.
    pub fn instance_name(&self) -> Option<String> {
        self.instance_name.read().clone()
    }

    /// Records the instance name. Called by the directory service when the
    /// object is registered in a name space.
    pub fn set_instance_name(&self, name: Option<String>) {
        *self.instance_name.write() = name;
    }

    /// Runs `f` with exclusive access to the instance state, downcast to
    /// `T`.
    ///
    /// Returns [`ObjError::StateType`] if the state is not a `T`. The state
    /// lock is held for the duration of `f`; methods must not re-enter
    /// `with_state` on the *same* object from within `f` (calls to other
    /// objects are fine).
    pub fn with_state<T: 'static, R>(
        &self,
        f: impl FnOnce(&mut T) -> ObjResult<R>,
    ) -> ObjResult<R> {
        let mut guard = self.state.lock();
        let state = guard
            .downcast_mut::<T>()
            .ok_or_else(|| ObjError::StateType {
                class: self.class.clone(),
            })?;
        f(state)
    }

    /// Replaces the instance state wholesale, returning the old state.
    pub fn replace_state(&self, new: Box<dyn Any + Send>) -> Box<dyn Any + Send> {
        std::mem::replace(&mut self.state.lock(), new)
    }

    /// Returns the named interface.
    ///
    /// This is the standard "obtain an interface from a given object handle"
    /// operation of the architecture.
    pub fn interface(&self, name: &str) -> ObjResult<Arc<Interface>> {
        self.interfaces
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ObjError::NoSuchInterface {
                class: self.class.clone(),
                interface: name.to_owned(),
            })
    }

    /// True if the object exports an interface named `name`.
    pub fn has_interface(&self, name: &str) -> bool {
        self.interfaces.read().contains_key(name)
    }

    /// Names of all exported interfaces, sorted.
    pub fn interface_names(&self) -> Vec<String> {
        self.interfaces.read().keys().cloned().collect()
    }

    /// Adds (or replaces) an exported interface at run time.
    ///
    /// Interface *addition* is the paper's evolution story: new named
    /// interfaces can appear on an object without recompiling users of the
    /// existing ones.
    pub fn export_interface(&self, iface: Interface) {
        self.interfaces
            .write()
            .insert(iface.name().to_owned(), Arc::new(iface));
        self.bump_export_generation();
    }

    /// Removes an exported interface, returning whether it existed.
    pub fn revoke_interface(&self, name: &str) -> bool {
        let removed = self.interfaces.write().remove(name).is_some();
        if removed {
            self.bump_export_generation();
        }
        removed
    }

    /// The current export generation.
    ///
    /// Any cached method handle ([`ResolvedMethod`], a
    /// [`Forward`](crate::forward::Forward)'s cache, the per-object
    /// dispatch cache) resolved at an older generation is stale and must
    /// re-resolve before calling.
    #[inline]
    pub fn export_generation(&self) -> u64 {
        self.export_gen.load(Ordering::Acquire)
    }

    /// Invalidates every cached method handle resolved against this object.
    ///
    /// Called automatically by [`Object::export_interface`] and
    /// [`Object::revoke_interface`]. Wrapper objects whose *forwarding
    /// topology* changes without their interface set changing — an
    /// interposer being retargeted, a composition child being replaced —
    /// call this explicitly so per-hop forward caches miss and re-resolve.
    pub fn bump_export_generation(&self) {
        self.export_gen.fetch_add(1, Ordering::Release);
    }

    /// Resolves a directly implemented method to a cacheable handle, or
    /// `None` if the interface is missing or the method is only reachable
    /// through a delegation fallback.
    pub fn resolve_method(&self, interface: &str, method: &str) -> Option<ResolvedMethod> {
        let gen = self.export_generation();
        let imp = self
            .interfaces
            .read()
            .get(interface)?
            .method(method)?
            .clone();
        Some(ResolvedMethod { gen, imp })
    }

    /// Flattened type information for every exported interface.
    pub fn descriptors(&self) -> Vec<InterfaceDescriptor> {
        self.interfaces
            .read()
            .values()
            .map(|i| i.descriptor())
            .collect()
    }

    /// Total method invocations through [`Object::invoke`].
    pub fn invocation_count(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Bumps the invocation statistic.
    ///
    /// Deliberately a plain load/store rather than an atomic RMW: the
    /// counter is a monitoring statistic on the dispatch hot path, and a
    /// locked `fetch_add` costs more than the rest of the fast path
    /// combined on some hosts. Racing writers may drop a count; the value
    /// is exact in the deterministic single-threaded simulation.
    #[inline]
    pub(crate) fn note_invocation(&self) {
        self.invocations.store(
            self.invocations.load(Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// Records a resolution in the dispatch cache by republishing a new
    /// snapshot. Stale entries (older generation) are dropped; fresh
    /// entries are never evicted, so once the cache is full of current
    /// resolutions additional methods stay on the slow path and no
    /// snapshot churn occurs.
    fn remember_dispatch(&self, gen: u64, interface: &str, method: &str, imp: CachedDispatch) {
        let mut entries: Vec<DispatchEntry> = match self.dispatch_cache.load() {
            Some(t) => {
                // Full of current entries (and this pair is not one of
                // them, else we would have hit): leave the cache alone.
                if t.iter().filter(|e| e.gen == gen).count() >= DISPATCH_CACHE_SLOTS {
                    return;
                }
                t.iter().filter(|e| e.gen == gen).cloned().collect()
            }
            None => Vec::with_capacity(1),
        };
        entries.push(DispatchEntry {
            gen,
            interface: interface.to_owned(),
            method: method.to_owned(),
            imp,
        });
        self.dispatch_cache.publish(entries);
    }
}

/// Extension trait providing invocation on `ObjRef` (methods need the `Arc`
/// so they can hand out `self` references).
pub trait Invoke {
    /// Invokes `interface::method(args)` on this object.
    fn invoke(&self, interface: &str, method: &str, args: &[Value]) -> ObjResult<Value>;
}

impl Invoke for ObjRef {
    fn invoke(&self, interface: &str, method: &str, args: &[Value]) -> ObjResult<Value> {
        Object::invoke(self, interface, method, args)
    }
}

impl Object {
    /// Invokes `interface::method(args)` on this object.
    ///
    /// The common case is served by a per-object inline cache: a pinned
    /// `Arc<Method>` handle revalidated against the export generation, so
    /// repeated calls skip the interface-table and method-table lookups
    /// entirely and the arguments stay borrowed end to end (no clone, no
    /// allocation for flat frames). Any interface re-export or revocation
    /// bumps the generation and sends the next call down the slow path.
    ///
    /// Fast and slow path run the identical dispatch kernel
    /// ([`Method::call`]) — same signature checks, same invocation
    /// accounting — which `tests/dispatch_conformance.rs` pins
    /// differentially against [`Object::invoke_uncached`].
    #[inline]
    pub fn invoke(
        self: &Arc<Self>,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> ObjResult<Value> {
        // Lock-free fast path: one atomic load of the current snapshot,
        // one of the generation, then a short scan. The snapshot reference
        // stays valid for the whole call even if a concurrent re-export
        // republishes (see `snapcell`), and the generation check rejects
        // anything stale.
        if let Some(entries) = self.dispatch_cache.load() {
            let gen = self.export_gen.load(Ordering::Acquire);
            if let Some(e) = entries
                .iter()
                .find(|e| e.gen == gen && e.method == method && e.interface == interface)
            {
                self.note_invocation();
                return match &e.imp {
                    CachedDispatch::Direct(m) => m.call(self, args),
                    CachedDispatch::Fallback(fb) => fb(self, method, args),
                };
            }
        }
        self.invoke_slow(interface, method, args)
    }

    /// Slow path: full name-space lookup, then populate the dispatch cache
    /// for directly implemented methods.
    #[cold]
    fn invoke_slow(
        self: &Arc<Self>,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> ObjResult<Value> {
        // Generation is sampled *before* the interface read so a racing
        // re-export can only make the recorded entry stale, never wrongly
        // fresh.
        let gen = self.export_generation();
        let iface = self.interface(interface)?;
        self.note_invocation();
        match iface.method(method) {
            Some(m) => {
                self.remember_dispatch(gen, interface, method, CachedDispatch::Direct(m.clone()));
                m.call(self, args)
            }
            None => match iface.fallback_fn() {
                // Delegated (fallback-served) methods pin the fallback
                // handler itself: the interface is immutable at this
                // generation, so the method's absence is stable and the
                // hot path skips the interface-table walk entirely. Only
                // *successful* resolutions are pinned — the name space of
                // failing probes is unbounded, and caching them would let
                // junk method names fill the slots and push real hot
                // methods off the fast path.
                Some(fb) => {
                    let result = fb(self, method, args);
                    if result.is_ok() {
                        self.remember_dispatch(
                            gen,
                            interface,
                            method,
                            CachedDispatch::Fallback(fb.clone()),
                        );
                    }
                    result
                }
                None => Err(ObjError::NoSuchMethod {
                    interface: iface.name().to_owned(),
                    method: method.to_owned(),
                }),
            },
        }
    }

    /// Invokes `interface::method(args)` bypassing every dispatch cache —
    /// the reference slow path.
    ///
    /// Semantically identical to [`Object::invoke`] (same lookups, checks
    /// and accounting); it only skips cache consultation and population.
    /// The dispatch conformance suite drives both and asserts equivalence.
    pub fn invoke_uncached(
        self: &Arc<Self>,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> ObjResult<Value> {
        let iface = self.interface(interface)?;
        self.note_invocation();
        iface.call(self, method, args)
    }
}

/// A pinned method resolution: the target's `Arc<Method>` plus the export
/// generation it was resolved at.
///
/// Produced by [`Object::resolve_method`] and cached by cross-domain
/// proxies and per-hop forward caches. Callers must revalidate with
/// [`ResolvedMethod::is_current`] against the *same object* the handle was
/// resolved from before each call; a stale handle must be dropped and
/// re-resolved (it would otherwise pin an implementation the object no
/// longer exports).
#[derive(Clone)]
pub struct ResolvedMethod {
    gen: u64,
    imp: Arc<Method>,
}

impl ResolvedMethod {
    /// The export generation this handle was resolved at.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// True while `obj` (the object this was resolved from) has not
    /// re-exported or revoked any interface since resolution.
    #[inline]
    pub fn is_current(&self, obj: &Object) -> bool {
        self.gen == obj.export_generation()
    }

    /// The resolved method's signature.
    pub fn signature(&self) -> &MethodSig {
        &self.imp.sig
    }

    /// Calls the resolved method on `this` with exactly the semantics of
    /// [`Object::invoke`]: invocation accounting plus full signature
    /// checking.
    #[inline]
    pub fn call(&self, this: &ObjRef, args: &[Value]) -> ObjResult<Value> {
        this.note_invocation();
        self.imp.call(this, args)
    }
}

impl std::fmt::Debug for ResolvedMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedMethod")
            .field("gen", &self.gen)
            .field("sig", &self.imp.sig)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        builder::ObjectBuilder,
        typeinfo::{MethodSig, TypeTag},
    };

    /// Objects are shared across OS threads by the world pool (e.g. one
    /// sharded block cache serving many worlds), so `Object` must stay
    /// `Send + Sync`; pinned here so a non-thread-safe field is caught in
    /// this crate.
    #[test]
    fn objects_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Object>();
        assert_send_sync::<ObjRef>();
    }

    fn counter() -> ObjRef {
        ObjectBuilder::new("counter")
            .state(0i64)
            .interface("counter", |i| {
                i.method("incr", &[TypeTag::Int], TypeTag::Int, |this, args| {
                    let by = args[0].as_int()?;
                    this.with_state(|n: &mut i64| {
                        *n += by;
                        Ok(Value::Int(*n))
                    })
                })
                .method("get", &[], TypeTag::Int, |this, _| {
                    this.with_state(|n: &mut i64| Ok(Value::Int(*n)))
                })
            })
            .build()
    }

    #[test]
    fn invoke_mutates_state() {
        let c = counter();
        c.invoke("counter", "incr", &[Value::Int(2)]).unwrap();
        c.invoke("counter", "incr", &[Value::Int(3)]).unwrap();
        assert_eq!(c.invoke("counter", "get", &[]).unwrap(), Value::Int(5));
    }

    #[test]
    fn missing_interface_is_an_error() {
        let c = counter();
        assert!(matches!(
            c.invoke("nope", "get", &[]),
            Err(ObjError::NoSuchInterface { .. })
        ));
    }

    #[test]
    fn wrong_state_type_is_reported() {
        let c = counter();
        let err = c.with_state(|_: &mut String| Ok(())).unwrap_err();
        assert!(matches!(err, ObjError::StateType { .. }));
    }

    #[test]
    fn invocation_count_tracks_calls() {
        let c = counter();
        assert_eq!(c.invocation_count(), 0);
        for _ in 0..7 {
            c.invoke("counter", "get", &[]).unwrap();
        }
        assert_eq!(c.invocation_count(), 7);
    }

    #[test]
    fn interfaces_can_be_added_and_revoked_at_runtime() {
        let c = counter();
        assert!(!c.has_interface("measurement"));
        let mut m = Interface::new("measurement");
        m.insert_method(
            MethodSig::new("calls", &[], TypeTag::Int),
            crate::interface::method_fn(|this, _| Ok(Value::Int(this.invocation_count() as i64))),
        );
        c.export_interface(m);
        assert!(c.has_interface("measurement"));
        // Existing interface still works — evolution without recompilation.
        c.invoke("counter", "incr", &[Value::Int(1)]).unwrap();
        let calls = c.invoke("measurement", "calls", &[]).unwrap();
        assert_eq!(calls, Value::Int(2));
        assert!(c.revoke_interface("measurement"));
        assert!(!c.has_interface("measurement"));
    }

    #[test]
    fn instance_name_roundtrips() {
        let c = counter();
        assert_eq!(c.instance_name(), None);
        c.set_instance_name(Some("/app/counter".into()));
        assert_eq!(c.instance_name().as_deref(), Some("/app/counter"));
    }

    #[test]
    fn replace_state_swaps_instance_data() {
        let c = counter();
        c.invoke("counter", "incr", &[Value::Int(41)]).unwrap();
        let old = c.replace_state(Box::new(0i64));
        assert_eq!(*old.downcast::<i64>().unwrap(), 41);
        assert_eq!(c.invoke("counter", "get", &[]).unwrap(), Value::Int(0));
    }
}
