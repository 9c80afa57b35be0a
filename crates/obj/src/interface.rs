//! Named interfaces: the only way to operate on an object.
//!
//! "Each object exports one or more named interfaces. … Objects can be
//! operated on only through the methods in the interfaces they export."
//! (paper, section 2). Interfaces being *named* is what allows them to
//! evolve: adding a `measurement` interface to an RPC object does not change
//! the `rpc` interface its existing users bound to.

use std::sync::Arc;

use crate::{error::ObjError, object::ObjRef, typeinfo::MethodSig, value::Value, ObjResult};

/// The implementation of one method.
///
/// The first argument is the receiving object instance (its "state pointer"
/// in the paper's terms); the slice carries the type-checked arguments.
pub(crate) type MethodFn = Arc<dyn Fn(&ObjRef, &[Value]) -> ObjResult<Value> + Send + Sync>;

/// One entry of an interface: signature plus implementation.
#[derive(Clone)]
pub(crate) struct Method {
    /// Type information for the method.
    sig: MethodSig,
    /// The code to run.
    imp: MethodFn,
}

impl Method {
    /// Runs this method on behalf of `this` with full signature checking.
    ///
    /// Both ways of calling a method end here — [`Interface::call`] (and
    /// so every [`Object::invoke`](crate::Object::invoke)) and
    /// [`BoundMethod::call`] — so they check the same things.
    #[inline]
    fn call(&self, this: &ObjRef, args: &[Value]) -> ObjResult<Value> {
        self.sig.check_args(args)?;
        let result = (self.imp)(this, args)?;
        self.sig.check_result(&result)?;
        Ok(result)
    }
}

/// A named set of methods with type information.
///
/// Methods are kept inline, sorted by name, one per name; a method's
/// only allocation is its implementation. An interface answers exactly
/// the methods it lists: its signatures are its type.
pub struct Interface {
    name: &'static str,
    methods: Vec<Method>,
}

impl std::fmt::Debug for Interface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interface")
            .field("name", &self.name)
            .field(
                "methods",
                &self.methods.iter().map(|m| m.sig.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Interface {
    /// Creates an empty interface with the given name.
    pub fn new(name: &'static str) -> Self {
        Interface {
            name,
            methods: Vec::new(),
        }
    }

    /// The interface name, unique within its exporting object.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds (or replaces) a method.
    pub(crate) fn insert_method(&mut self, sig: MethodSig, imp: MethodFn) {
        let method = Method { sig, imp };
        match self.methods.binary_search_by(|m| m.sig.name.cmp(sig.name)) {
            Ok(at) => self.methods[at] = method,
            Err(at) => self.methods.insert(at, method),
        }
    }

    /// Returns the method `name`, if the interface has it.
    #[inline]
    pub(crate) fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.sig.name == name)
    }

    /// The signatures of every method, sorted by name: the interface's
    /// type, which two interfaces of one name compare to be substitutable.
    pub fn signatures(&self) -> impl ExactSizeIterator<Item = &MethodSig> {
        self.methods.iter().map(|m| &m.sig)
    }

    /// Pre-resolves `method` against `this`, returning the inline-call
    /// handle, or `None` if the interface has no such method. A forwarded
    /// method binds like any other: the handle runs its forward, which
    /// still follows the forwarder's target.
    ///
    /// Binding copies the method's signature and shares its
    /// implementation; nothing is allocated.
    pub fn bind_method(&self, this: &ObjRef, method: &str) -> Option<BoundMethod> {
        self.method(method).map(|m| BoundMethod {
            method: m.clone(),
            this: this.clone(),
        })
    }

    /// Invokes `method` on behalf of `this`, checking arguments and result
    /// against the method signature; a method the interface lacks is
    /// [`ObjError::NoSuchMethod`].
    ///
    /// Arguments are passed through borrowed (`&[Value]`) end to end: no
    /// hop in the dispatch stack re-collects them into a fresh `Vec`.
    #[inline]
    pub fn call(&self, this: &ObjRef, method: &str, args: &[Value]) -> ObjResult<Value> {
        match self.method(method) {
            Some(m) => m.call(this, args),
            None => Err(ObjError::NoSuchMethod {
                interface: self.name.to_owned(),
                method: method.to_owned(),
            }),
        }
    }
}

/// A pre-resolved method: the paper's "run time inline techniques"
/// (section 2) for when dispatch overhead matters.
///
/// Binding pins the method's signature (a copy) and implementation (a
/// shared reference) together with the object it was bound against,
/// skipping both interface and method-table lookups on every call. An
/// object's interfaces never change, so a bound method runs what `invoke`
/// on that object would. The trade-off is explicit: it keeps calling that
/// *instance* — it does **not** follow a later replacement of the
/// instance (a composition's `replace`, a new handle in the name space).
/// Callers give up one step of late binding for speed, which is why this
/// is an opt-in fast path and not the default.
#[derive(Clone)]
pub struct BoundMethod {
    method: Method,
    this: ObjRef,
}

impl BoundMethod {
    /// Invokes the bound method with full signature checking. Arguments are
    /// borrowed straight through to the implementation — no per-call clone.
    pub fn call(&self, args: &[Value]) -> ObjResult<Value> {
        self.method.call(&self.this, args)
    }

    /// The bound signature.
    pub fn signature(&self) -> &MethodSig {
        &self.method.sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectBuilder, TypeTag};

    fn method_fn(
        f: impl Fn(&ObjRef, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
    ) -> MethodFn {
        Arc::new(f)
    }

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
    fn signatures_list_sorted_methods() {
        let mut iface = Interface::new("dev");
        for name in ["write", "read", "ioctl"] {
            iface.insert_method(
                MethodSig::new(name, &[], TypeTag::Unit),
                method_fn(|_, _| Ok(Value::Unit)),
            );
        }
        assert!(iface
            .signatures()
            .map(|s| s.name)
            .eq(["ioctl", "read", "write"]));
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
        assert_eq!(bound.signature().name, "incr");
        // A missing method cannot be bound.
        assert!(obj
            .interface("ctr")
            .unwrap()
            .bind_method(&obj, "nope")
            .is_none());
    }

    #[test]
    fn bound_method_does_not_see_later_replacement() {
        // The documented trade-off: binding freezes the instance. A
        // composition's clients follow a replaced child; a method bound
        // on the child itself keeps calling it.
        let version = |v: i64| {
            crate::ObjectBuilder::new("v")
                .interface("v", |i| {
                    i.method("get", &[], TypeTag::Int, move |_, _| Ok(Value::Int(v)))
                })
                .build()
        };
        let first = version(1);
        let comp = crate::CompositionBuilder::new("comp")
            .child("c", first.clone())
            .export("v", "c")
            .build()
            .unwrap();
        let bound = first
            .interface("v")
            .unwrap()
            .bind_method(&first, "get")
            .unwrap();
        comp.invoke(
            crate::compose::COMPOSITION_IFACE,
            "replace",
            &[Value::Str("c".into()), Value::Handle(version(2))],
        )
        .unwrap();
        assert_eq!(comp.invoke("v", "get", &[]).unwrap(), Value::Int(2));
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
        assert_eq!(iface.signatures().len(), 1);
        assert_eq!(iface.call(&dummy(), "get", &[]).unwrap(), Value::Int(2));
    }
}
