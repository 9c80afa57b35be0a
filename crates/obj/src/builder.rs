//! Fluent construction of objects and interfaces.

use std::any::Any;

use crate::{
    interface::Interface,
    object::{ObjRef, Object},
    typeinfo::{MethodSig, TypeTag},
    value::Value,
    ObjResult,
};

/// Builds an [`Object`] with state and interfaces.
///
/// # Examples
///
/// ```
/// use paramecium_obj::{ObjectBuilder, TypeTag, Value};
///
/// let obj = ObjectBuilder::new("echo")
///     .interface("echo", |i| {
///         i.method("echo", &[TypeTag::Str], TypeTag::Str, |_, args| {
///             Ok(args[0].clone())
///         })
///     })
///     .build();
/// assert_eq!(
///     obj.invoke("echo", "echo", &[Value::Str("hi".into())]).unwrap(),
///     Value::Str("hi".into())
/// );
/// ```
pub struct ObjectBuilder {
    class: String,
    state: Box<dyn Any + Send>,
    interfaces: Vec<Interface>,
}

impl ObjectBuilder {
    /// Starts building an object of the given class with unit state.
    pub fn new(class: impl Into<String>) -> Self {
        ObjectBuilder {
            class: class.into(),
            state: Box::new(()),
            interfaces: Vec::new(),
        }
    }

    /// Sets the instance data.
    pub fn state<T: Any + Send>(mut self, state: T) -> Self {
        self.state = Box::new(state);
        self
    }

    /// Adds an interface, configured by `f`.
    pub fn interface(
        mut self,
        name: &'static str,
        f: impl FnOnce(InterfaceBuilder) -> InterfaceBuilder,
    ) -> Self {
        let b = f(InterfaceBuilder::new(name));
        self.interfaces.push(b.finish());
        self
    }

    /// Adds a fully built interface.
    pub fn raw_interface(mut self, iface: Interface) -> Self {
        self.interfaces.push(iface);
        self
    }

    /// Finishes construction.
    pub fn build(self) -> ObjRef {
        Object::new(self.class, self.state, self.interfaces)
    }
}

/// Builds one [`Interface`].
pub struct InterfaceBuilder {
    iface: Interface,
    declared: &'static [MethodSig],
}

impl InterfaceBuilder {
    /// Starts an empty interface.
    pub fn new(name: &'static str) -> Self {
        Self::declared(name, &[])
    }

    /// Starts an empty interface that many objects export, declared once
    /// as `decl`; [`InterfaceBuilder::provide`] takes signatures from it.
    pub fn declared(name: &'static str, decl: &'static [MethodSig]) -> Self {
        InterfaceBuilder {
            iface: Interface::new(name),
            declared: decl,
        }
    }

    /// Adds the declared method `name` under its declared signature.
    /// Panics if the declaration has no such method.
    pub fn provide<F>(mut self, name: &str, f: F) -> Self
    where
        F: Fn(&ObjRef, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
    {
        let Some(&sig) = self.declared.iter().find(|s| s.name == name) else {
            panic!("`{}` declares no method `{name}`", self.iface.name());
        };
        self.iface.insert_method(sig, std::sync::Arc::new(f));
        self
    }

    /// Adds a method.
    pub fn method<F>(
        mut self,
        name: &'static str,
        params: &'static [TypeTag],
        returns: TypeTag,
        f: F,
    ) -> Self
    where
        F: Fn(&ObjRef, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
    {
        self.iface.insert_method(
            MethodSig::new(name, params, returns),
            std::sync::Arc::new(f),
        );
        self
    }

    /// Finishes the interface.
    pub fn finish(self) -> Interface {
        self.iface
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_builds_multi_interface_objects() {
        let obj = ObjectBuilder::new("multi")
            .state(10i64)
            .interface("a", |i| {
                i.method("one", &[], TypeTag::Int, |_, _| Ok(Value::Int(1)))
            })
            .interface("b", |i| {
                i.method("two", &[], TypeTag::Int, |_, _| Ok(Value::Int(2)))
                    .method("state", &[], TypeTag::Int, |this, _| {
                        this.with_state(|s: &mut i64| Ok(Value::Int(*s)))
                    })
            })
            .build();
        assert!(obj.interface_names().eq(["a", "b"]));
        assert_eq!(obj.invoke("a", "one", &[]).unwrap(), Value::Int(1));
        assert_eq!(obj.invoke("b", "state", &[]).unwrap(), Value::Int(10));
    }
}
