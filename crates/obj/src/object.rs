//! Object instances.
//!
//! "An object is conceptually a collection of methods and instance data"
//! (paper, section 2). Objects are coarse grained — a scheduler, an IP
//! layer, a device driver, a memory allocator — and are always manipulated
//! through the named interfaces they export.
//!
//! The set of interfaces is fixed when the object is built. A service
//! changes by interposition instead: build an object that exports a
//! superset of the original's interfaces and replace the handle in the
//! name space.

use std::{
    any::Any,
    sync::{
        atomic::{AtomicU64, Ordering},
        Arc,
    },
};

use parking_lot::RwLock;

use crate::{
    error::ObjError, interface::Interface, trylock::TryLock, typeinfo::InterfaceDescriptor,
    value::Value, MethodSig, ObjResult,
};

/// A shared reference to an object instance — the paper's "object handle".
pub type ObjRef = Arc<Object>;

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
    /// Exported interfaces, sorted by name, one per name.
    interfaces: Box<[Interface]>,
    /// Total method invocations through [`Object::invoke`].
    invocations: AtomicU64,
}

impl std::fmt::Debug for Object {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Object")
            .field("class", &self.class)
            .field("instance_name", &*self.instance_name.read())
            .field("interfaces", &self.interface_names().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl Object {
    /// Creates an object with the given class name, instance state and
    /// interfaces; of two interfaces with one name, the later wins. Most
    /// callers use [`ObjectBuilder`](crate::ObjectBuilder) instead.
    pub fn new(
        class: impl Into<String>,
        state: Box<dyn Any + Send>,
        interfaces: impl IntoIterator<Item = Interface>,
    ) -> ObjRef {
        let interfaces = interfaces.into_iter();
        let mut table: Vec<Interface> = Vec::with_capacity(interfaces.size_hint().0);
        for iface in interfaces {
            match table.binary_search_by(|i| i.name().cmp(iface.name())) {
                Ok(at) => table[at] = iface,
                Err(at) => table.insert(at, iface),
            }
        }
        Arc::new(Object {
            class: class.into(),
            instance_name: RwLock::new(None),
            state: TryLock::new(state),
            interfaces: table.into_boxed_slice(),
            invocations: AtomicU64::new(0),
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
    #[inline]
    pub fn interface(&self, name: &str) -> ObjResult<&Interface> {
        self.interfaces
            .iter()
            .find(|i| i.name() == name)
            .ok_or_else(|| ObjError::NoSuchInterface {
                class: self.class.clone(),
                interface: name.to_owned(),
            })
    }

    /// True if the object exports an interface named `name`.
    pub fn has_interface(&self, name: &str) -> bool {
        self.interfaces.iter().any(|i| i.name() == name)
    }

    /// Names of all exported interfaces, sorted.
    pub fn interface_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.interfaces.iter().map(Interface::name)
    }

    /// Checks that this object exports interface `name` under exactly the
    /// signatures `sigs` (sorted by name), or refuses with
    /// [`ObjError::Binding`]: where objects are joined, a name fixes a type.
    pub fn conforms<'a>(
        &self,
        name: &str,
        sigs: impl IntoIterator<Item = &'a MethodSig>,
    ) -> ObjResult<()> {
        match self.interface(name) {
            Ok(i) if i.signatures().eq(sigs) => Ok(()),
            _ => Err(ObjError::Binding(format!(
                "`{}` does not export `{name}` with the signatures required",
                self.class
            ))),
        }
    }

    /// Checks that this object can stand in for `old`: it [conforms] to
    /// every interface of `old`; more are allowed (an interposer exports
    /// a superset).
    ///
    /// [conforms]: Object::conforms
    pub fn stands_in_for(&self, old: &Object) -> ObjResult<()> {
        old.interfaces
            .iter()
            .try_for_each(|i| self.conforms(i.name(), i.signatures()))
    }

    /// Flattened type information for every exported interface.
    pub fn descriptors(&self) -> Vec<InterfaceDescriptor> {
        self.interfaces.iter().map(Interface::descriptor).collect()
    }

    /// Total method invocations through [`Object::invoke`].
    pub fn invocation_count(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Bumps the invocation statistic.
    ///
    /// Deliberately a plain load/store rather than an atomic RMW: the
    /// counter is a monitoring statistic on the dispatch hot path, and a
    /// locked `fetch_add` costs more than the rest of the dispatch path
    /// combined on some hosts. Racing writers may drop a count; the value
    /// is exact in the deterministic single-threaded simulation.
    #[inline]
    pub(crate) fn note_invocation(&self) {
        self.invocations.store(
            self.invocations.load(Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// Invokes `interface::method(args)` on this object.
    ///
    /// Finds the interface by name, counts the invocation and hands the
    /// call to [`Interface::call`], which runs the method or answers
    /// [`ObjError::NoSuchMethod`]. The interface table never changes
    /// after the object is built, so the lookup takes no lock and the
    /// arguments stay borrowed end to end (no clone, no allocation for
    /// flat frames).
    #[inline]
    pub fn invoke(
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
    use crate::{builder::ObjectBuilder, typeinfo::TypeTag};

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

    fn counter_with(extra: impl FnOnce(ObjectBuilder) -> ObjectBuilder) -> ObjRef {
        extra(
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
                }),
        )
        .build()
    }

    fn counter() -> ObjRef {
        counter_with(|b| b)
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
        let c = counter_with(|b| {
            b.interface("faulty", |i| {
                i.method("incr_then_panic", &[], TypeTag::Int, |this, _| {
                    this.with_state(|n: &mut i64| -> ObjResult<Value> {
                        *n += 1;
                        panic!("method body failed mid-update");
                    })
                })
            })
        });
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
    fn a_later_interface_of_the_same_name_wins() {
        let c = counter_with(|b| {
            b.interface("counter", |i| {
                i.method("get", &[], TypeTag::Int, |_, _| Ok(Value::Int(-1)))
            })
            .interface("a", |i| i)
        });
        assert!(c.interface_names().eq(["a", "counter"]));
        assert_eq!(c.invoke("counter", "get", &[]).unwrap(), Value::Int(-1));
        assert!(matches!(
            c.invoke("counter", "incr", &[Value::Int(1)]),
            Err(ObjError::NoSuchMethod { .. })
        ));
    }

    #[test]
    fn instance_name_roundtrips() {
        let c = counter();
        assert_eq!(c.instance_name(), None);
        c.set_instance_name(Some("/app/counter".into()));
        assert_eq!(c.instance_name().as_deref(), Some("/app/counter"));
    }
}
