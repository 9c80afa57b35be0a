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

use std::{any::Any, sync::Arc};

use crate::{
    error::ObjError, interface::Interface, trylock::TryLock, value::Value, MethodSig, ObjResult,
};

/// A shared reference to an object instance — the paper's "object handle".
pub type ObjRef = Arc<Object>;

/// An object instance: its class, instance data and exported interfaces.
/// Its instance name is the path a name space binds it under; the object
/// does not keep a copy.
pub struct Object {
    /// Class (component) name, e.g. `"nic-driver"`. Not unique.
    class: String,
    /// Instance data. Methods downcast it via [`Object::with_state`].
    /// Guarded by a spin lock: state critical sections are short, never
    /// re-entrant (see [`Object::with_state`]) and effectively uncontended
    /// in the deterministic simulation, so the single-swap acquire keeps
    /// state access off the dispatch path's cost ledger.
    state: TryLock<Box<dyn Any + Send>>,
    /// Exported interfaces, sorted by name, one per name.
    interfaces: Box<[Interface]>,
}

impl std::fmt::Debug for Object {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Object")
            .field("class", &self.class)
            .field("interfaces", &self.interface_names().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl Object {
    /// Creates an object with the given class name, instance state and
    /// interfaces; of two interfaces with one name, the later wins.
    /// [`ObjectBuilder`](crate::ObjectBuilder) is the way in from outside.
    pub(crate) fn new(
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
            state: TryLock::new(state),
            interfaces: table.into_boxed_slice(),
        })
    }

    /// The class (component type) name.
    pub fn class(&self) -> &str {
        &self.class
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

    /// Invokes `interface::method(args)` on this object.
    ///
    /// Finds the interface by name and hands the call to
    /// [`Interface::call`], which runs the method or answers
    /// [`ObjError::NoSuchMethod`]. The interface table never changes
    /// after the object is built, so the lookup takes no lock, writes
    /// nothing to the object, and the arguments stay borrowed end to end
    /// (no clone, no allocation for flat frames). Counting calls is an
    /// interposer's `before` hook, paid only where one is installed.
    #[inline]
    pub fn invoke(
        self: &Arc<Self>,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> ObjResult<Value> {
        self.interface(interface)?.call(self, method, args)
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
}
