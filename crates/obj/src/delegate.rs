//! Method delegation.
//!
//! "To support code sharing the architecture supports method delegation"
//! (paper, section 2). An interface may implement some methods itself and
//! delegate the rest to another object's interface of the same name. Unlike
//! class inheritance, delegation happens between *instances* at run time.

use crate::{forward::forwarding_interface, interface::Interface, object::ObjRef};

/// Wires `base` so that any method it does not implement is forwarded to
/// `target`'s interface of the same name.
///
/// The receiver seen by the delegated method is `target`, so delegated
/// methods operate on the target's instance data — this is delegation, not
/// inheritance. Methods the target exports now are installed under the
/// target's own signatures, so the delegating object describes and
/// type-checks like the target; methods the target grows later are reached
/// all the same.
///
/// # Examples
///
/// ```
/// use paramecium_obj::{delegate_interface, InterfaceBuilder, ObjectBuilder, TypeTag, Value};
///
/// let base = ObjectBuilder::new("base")
///     .interface("io", |i| {
///         i.method("read", &[], TypeTag::Str, |_, _| Ok(Value::Str("base-read".into())))
///             .method("write", &[], TypeTag::Str, |_, _| Ok(Value::Str("base-write".into())))
///     })
///     .build();
///
/// // A specialised object that overrides `write` and delegates `read`.
/// let iface = InterfaceBuilder::new("io")
///     .method("write", &[], TypeTag::Str, |_, _| Ok(Value::Str("fancy-write".into())))
///     .finish();
/// let specialised = ObjectBuilder::new("fancy")
///     .raw_interface(delegate_interface(iface, base))
///     .build();
///
/// assert_eq!(specialised.invoke("io", "write", &[]).unwrap(), Value::Str("fancy-write".into()));
/// assert_eq!(specialised.invoke("io", "read", &[]).unwrap(), Value::Str("base-read".into()));
/// ```
pub fn delegate_interface(base: Interface, target: ObjRef) -> Interface {
    let sigs = target
        .interface(base.name())
        .map(|i| i.descriptor().methods)
        .unwrap_or_default();
    forwarding_interface(base, sigs, move |_| Ok(target.clone()), |_| None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        builder::{InterfaceBuilder, ObjectBuilder},
        error::ObjError,
        typeinfo::TypeTag,
        value::Value,
    };

    fn base() -> ObjRef {
        ObjectBuilder::new("base")
            .state(0i64)
            .interface("ctr", |i| {
                i.method("incr", &[], TypeTag::Int, |this, _| {
                    this.with_state(|n: &mut i64| {
                        *n += 1;
                        Ok(Value::Int(*n))
                    })
                })
                .method("name", &[], TypeTag::Str, |_, _| {
                    Ok(Value::Str("base".into()))
                })
            })
            .build()
    }

    #[test]
    fn delegated_methods_run_on_target_state() {
        let b = base();
        let iface = InterfaceBuilder::new("ctr")
            .method("name", &[], TypeTag::Str, |_, _| {
                Ok(Value::Str("child".into()))
            })
            .finish();
        let child = ObjectBuilder::new("child")
            .raw_interface(delegate_interface(iface, b.clone()))
            .build();

        // Override wins.
        assert_eq!(
            child.invoke("ctr", "name", &[]).unwrap(),
            Value::Str("child".into())
        );
        // Delegated method mutates the *target's* state.
        child.invoke("ctr", "incr", &[]).unwrap();
        child.invoke("ctr", "incr", &[]).unwrap();
        assert_eq!(b.invoke("ctr", "incr", &[]).unwrap(), Value::Int(3));
    }

    #[test]
    fn delegation_chains_compose() {
        let b = base();
        let mid_iface = InterfaceBuilder::new("ctr").finish();
        let mid = ObjectBuilder::new("mid")
            .raw_interface(delegate_interface(mid_iface, b))
            .build();
        let top_iface = InterfaceBuilder::new("ctr").finish();
        let top = ObjectBuilder::new("top")
            .raw_interface(delegate_interface(top_iface, mid))
            .build();
        assert_eq!(top.invoke("ctr", "incr", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn missing_everywhere_is_still_an_error() {
        let b = base();
        let iface = InterfaceBuilder::new("ctr").finish();
        let child = ObjectBuilder::new("child")
            .raw_interface(delegate_interface(iface, b))
            .build();
        assert!(matches!(
            child.invoke("ctr", "no-such", &[]),
            Err(ObjError::NoSuchMethod { .. })
        ));
    }
}
