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
    interface::{Interface, Method},
    snapcell::SnapCell,
    trylock::TryLock,
    typeinfo::InterfaceDescriptor,
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

/// One pinned `(interface, method)` resolution of a directly implemented
/// method, valid while the object's export generation still matches `gen`.
/// Both names are the resolved interface's and signature's own `'static`
/// strings, so filling an entry copies no name.
#[derive(Clone)]
struct DispatchEntry {
    gen: u64,
    interface: &'static str,
    method: &'static str,
    imp: Arc<Method>,
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
    interfaces: RwLock<BTreeMap<&'static str, Arc<Interface>>>,
    /// Total method invocations through [`Object::invoke`].
    invocations: AtomicU64,
    /// Export generation: bumped whenever the set of exported interfaces
    /// changes. Dispatch-cache entries carry the generation they were
    /// resolved at and miss cleanly once it moves.
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
                &self.interfaces.read().keys().collect::<Vec<_>>(),
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
                    .map(|i| (i.name(), Arc::new(i)))
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
    /// objects are fine). The lock is not re-entrant, so breaking that
    /// rule livelocks. If `f` panics, the unwind releases the lock and
    /// the object keeps whatever state `f` left behind.
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
    pub fn interface_names(&self) -> Vec<&'static str> {
        self.interfaces.read().keys().copied().collect()
    }

    /// Adds (or replaces) an exported interface at run time.
    ///
    /// Interface *addition* is the paper's evolution story: new named
    /// interfaces can appear on an object without recompiling users of the
    /// existing ones.
    pub fn export_interface(&self, iface: Interface) {
        self.interfaces
            .write()
            .insert(iface.name(), Arc::new(iface));
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

    /// The current export generation. A dispatch-cache entry resolved at an
    /// older generation is stale and re-resolves before calling.
    #[inline]
    pub fn export_generation(&self) -> u64 {
        self.export_gen.load(Ordering::Acquire)
    }

    /// Invalidates every dispatch-cache entry resolved against this object;
    /// run by [`Object::export_interface`] and [`Object::revoke_interface`].
    fn bump_export_generation(&self) {
        self.export_gen.fetch_add(1, Ordering::Release);
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
    fn remember_dispatch(&self, gen: u64, interface: &'static str, imp: &Arc<Method>) {
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
            interface,
            method: imp.sig.name,
            imp: imp.clone(),
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
    /// Only directly implemented methods are pinned. A method an
    /// interface's delegation fallback serves takes the slow path on every
    /// call, exactly as [`Object::invoke_uncached`] does: its name need not
    /// be `'static`, and pinning it would let probes of unbounded method
    /// names compete for the slots.
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
                return e.imp.call(self, args);
            }
        }
        self.invoke_slow(interface, method, args)
    }

    /// Slow path: full name-space lookup, pinning the method in the
    /// dispatch cache if the interface implements it directly. A method
    /// served by the delegation fallback is not pinned (see
    /// [`Object::invoke`]); the fallback runs as [`Interface::call`] runs
    /// it.
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
                self.remember_dispatch(gen, iface.name(), m);
                m.call(self, args)
            }
            None => iface.call(self, method, args),
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
    fn concurrent_increments_are_exact() {
        let c = counter();
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (c, start) = (c.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..10_000 {
                        c.invoke("counter", "incr", &[Value::Int(1)]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.invoke("counter", "get", &[]).unwrap(), Value::Int(40_000));
    }

    #[test]
    fn a_panicking_method_leaves_the_object_usable() {
        let c = counter();
        let mut i = Interface::new("faulty");
        i.insert_method(
            MethodSig::new("incr_then_panic", &[], TypeTag::Int),
            crate::interface::method_fn(|this, _| {
                this.with_state(|n: &mut i64| -> ObjResult<Value> {
                    *n += 1;
                    panic!("method body failed mid-update");
                })
            }),
        );
        c.export_interface(i);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.invoke("faulty", "incr_then_panic", &[])
        }));
        assert!(unwound.is_err());
        assert_eq!(
            c.invoke("counter", "incr", &[Value::Int(2)]).unwrap(),
            Value::Int(3)
        );
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
}
