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
        name: impl Into<String>,
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
}

impl InterfaceBuilder {
    /// Starts an empty interface.
    pub fn new(name: impl Into<String>) -> Self {
        InterfaceBuilder {
            iface: Interface::new(name),
        }
    }

    /// Adds a method with a fixed signature.
    pub fn method<F>(mut self, name: &str, params: &[TypeTag], returns: TypeTag, f: F) -> Self
    where
        F: Fn(&ObjRef, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
    {
        self.iface.insert_method(
            MethodSig::new(name, params, returns),
            std::sync::Arc::new(f),
        );
        self
    }

    /// Adds a variadic method (any arguments, any result). Used by generic
    /// forwarders such as proxies and interposers.
    pub fn variadic_method<F>(mut self, name: &str, f: F) -> Self
    where
        F: Fn(&ObjRef, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
    {
        self.iface.insert_method(
            MethodSig::variadic(name, TypeTag::Any),
            std::sync::Arc::new(f),
        );
        self
    }

    /// Installs the delegation fallback.
    pub fn fallback(
        mut self,
        f: impl Fn(&ObjRef, &str, &[Value]) -> ObjResult<Value> + Send + Sync + 'static,
    ) -> Self {
        self.iface.set_fallback(std::sync::Arc::new(f));
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
        assert_eq!(obj.interface_names(), ["a", "b"]);
        assert_eq!(obj.invoke("a", "one", &[]).unwrap(), Value::Int(1));
        assert_eq!(obj.invoke("b", "state", &[]).unwrap(), Value::Int(10));
    }

    #[test]
    fn variadic_methods_accept_any_args() {
        let obj = ObjectBuilder::new("v")
            .interface("v", |i| {
                i.variadic_method("count", |_, args| Ok(Value::Int(args.len() as i64)))
            })
            .build();
        assert_eq!(
            obj.invoke("v", "count", &[Value::Unit, Value::Int(1)])
                .unwrap(),
            Value::Int(2)
        );
    }
}
