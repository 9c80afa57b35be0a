//! Object composition.
//!
//! "A composition is an ordinary object composed of other object instances.
//! Composition is to objects what objects are to data: an encapsulation
//! technique." (paper, section 2). The Paramecium kernel itself is a
//! composition of the objects managing interrupts, contexts, memory, etc.
//!
//! A composition re-exports selected interfaces of its children under its
//! own handle, and — because the common case is *dynamic* composition —
//! children can be replaced by new instances at run time without rebinding
//! the composition's clients.

use std::collections::BTreeMap;

use crate::{
    builder::ObjectBuilder,
    error::ObjError,
    forward::forwarding_interface,
    interface::Interface,
    object::ObjRef,
    typeinfo::{MethodSig, TypeTag},
    value::Value,
    ObjResult,
};

/// Instance data of a composition object: its children and export table.
#[derive(Default)]
struct CompositionState {
    /// Child instances by local name.
    children: BTreeMap<String, ObjRef>,
    /// Which child backs each re-exported interface.
    exports: BTreeMap<String, String>,
}

/// Name of the administrative interface every composition exports.
pub const COMPOSITION_IFACE: &str = "composition";

/// Builds a composition object.
///
/// # Examples
///
/// ```
/// use paramecium_obj::{CompositionBuilder, ObjectBuilder, TypeTag, Value};
///
/// let ticker = ObjectBuilder::new("ticker")
///     .state(0i64)
///     .interface("clock", |i| {
///         i.method("tick", &[], TypeTag::Int, |this, _| {
///             this.with_state(|n: &mut i64| { *n += 1; Ok(Value::Int(*n)) })
///         })
///     })
///     .build();
///
/// let comp = CompositionBuilder::new("kernel")
///     .child("clock", ticker)
///     .export("clock", "clock")
///     .build()
///     .unwrap();
/// assert_eq!(comp.invoke("clock", "tick", &[]).unwrap(), Value::Int(1));
/// ```
pub struct CompositionBuilder {
    class: String,
    state: CompositionState,
    errors: Vec<String>,
}

impl CompositionBuilder {
    /// Starts a composition of the given class.
    pub fn new(class: impl Into<String>) -> Self {
        CompositionBuilder {
            class: class.into(),
            state: CompositionState::default(),
            errors: Vec::new(),
        }
    }

    /// Adds a child instance under a local name.
    pub fn child(mut self, name: impl Into<String>, obj: ObjRef) -> Self {
        let name = name.into();
        if self.state.children.insert(name.clone(), obj).is_some() {
            self.errors.push(format!("duplicate child `{name}`"));
        }
        self
    }

    /// Re-exports `interface` of child `child` as an interface of the
    /// composition itself.
    pub fn export(mut self, interface: impl Into<String>, child: impl Into<String>) -> Self {
        let (interface, child) = (interface.into(), child.into());
        match self.state.children.get(&child) {
            Some(c) if c.has_interface(&interface) => {
                self.state.exports.insert(interface, child);
            }
            Some(_) => self.errors.push(format!(
                "child `{child}` does not export interface `{interface}`"
            )),
            None => self.errors.push(format!("no child named `{child}`")),
        }
        self
    }

    /// Finishes the composition.
    pub fn build(self) -> ObjResult<ObjRef> {
        if let Some(e) = self.errors.first() {
            return Err(ObjError::Binding(e.clone()));
        }
        let mut builder = ObjectBuilder::new(self.class);

        // One forwarding interface per export. The current child instance
        // backs each call so that `replace` (which bumps the composition's
        // export generation) takes effect for existing clients — this is
        // the late-binding property.
        for (iface_name, child_name) in &self.state.exports {
            let child = &self.state.children[child_name];
            let sigs = child.interface(iface_name)?.descriptor().methods;
            let child_name = child_name.clone();
            builder = builder.raw_interface(forwarding_interface(
                Interface::new(iface_name.clone()),
                sigs,
                move |this| lookup_child(this, &child_name),
                |_| None,
            ));
        }

        builder = builder.raw_interface(admin_interface());
        Ok(builder.state(self.state).build())
    }
}

/// Fetches the current instance of a child from the composition state.
fn lookup_child(this: &ObjRef, child: &str) -> ObjResult<ObjRef> {
    this.with_state(|s: &mut CompositionState| {
        s.children
            .get(child)
            .cloned()
            .ok_or_else(|| ObjError::Binding(format!("composition lost child `{child}`")))
    })
}

/// Builds the `composition` administrative interface: listing and replacing
/// children.
fn admin_interface() -> Interface {
    let mut iface = Interface::new(COMPOSITION_IFACE);
    iface.insert_method(
        MethodSig::new("children", &[], TypeTag::List),
        std::sync::Arc::new(|this: &ObjRef, _args: &[Value]| {
            this.with_state(|s: &mut CompositionState| {
                Ok(Value::List(
                    s.children.keys().map(|k| Value::Str(k.clone())).collect(),
                ))
            })
        }),
    );
    iface.insert_method(
        MethodSig::new("child", &[TypeTag::Str], TypeTag::Handle),
        std::sync::Arc::new(|this: &ObjRef, args: &[Value]| {
            let name = args[0].as_str()?.to_owned();
            lookup_child(this, &name).map(Value::Handle)
        }),
    );
    iface.insert_method(
        MethodSig::new("replace", &[TypeTag::Str, TypeTag::Handle], TypeTag::Handle),
        std::sync::Arc::new(|this: &ObjRef, args: &[Value]| {
            let name = args[0].as_str()?.to_owned();
            let new = args[1].as_handle()?.clone();
            let old = this.with_state(|s: &mut CompositionState| {
                let slot = s.children.get_mut(&name).ok_or_else(|| {
                    ObjError::Binding(format!("no child named `{name}` to replace"))
                })?;
                Ok(std::mem::replace(slot, new.clone()))
            })?;
            // Re-point every cached forward at the replacement instance.
            this.bump_export_generation();
            Ok(Value::Handle(old))
        }),
    );
    iface
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named_const(class: &str, v: i64) -> ObjRef {
        ObjectBuilder::new(class)
            .interface("val", |i| {
                i.method("get", &[], TypeTag::Int, move |_, _| Ok(Value::Int(v)))
            })
            .build()
    }

    #[test]
    fn composition_forwards_to_children() {
        let comp = CompositionBuilder::new("comp")
            .child("a", named_const("a", 1))
            .child("b", named_const("b", 2))
            .export("val", "b")
            .build()
            .unwrap();
        assert_eq!(comp.invoke("val", "get", &[]).unwrap(), Value::Int(2));
    }

    #[test]
    fn children_listable_and_fetchable() {
        let comp = CompositionBuilder::new("comp")
            .child("x", named_const("x", 1))
            .child("y", named_const("y", 2))
            .build()
            .unwrap();
        let names = comp.invoke(COMPOSITION_IFACE, "children", &[]).unwrap();
        assert_eq!(
            names,
            Value::List(vec![Value::Str("x".into()), Value::Str("y".into())])
        );
        let x = comp
            .invoke(COMPOSITION_IFACE, "child", &[Value::Str("x".into())])
            .unwrap();
        let x = x.as_handle().unwrap();
        assert_eq!(x.invoke("val", "get", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn replace_swaps_instances_for_existing_clients() {
        let comp = CompositionBuilder::new("comp")
            .child("c", named_const("c", 10))
            .export("val", "c")
            .build()
            .unwrap();
        assert_eq!(comp.invoke("val", "get", &[]).unwrap(), Value::Int(10));
        let old = comp
            .invoke(
                COMPOSITION_IFACE,
                "replace",
                &[Value::Str("c".into()), Value::Handle(named_const("c2", 99))],
            )
            .unwrap();
        // The handle seen by clients is unchanged, but calls go to the
        // replacement instance.
        assert_eq!(comp.invoke("val", "get", &[]).unwrap(), Value::Int(99));
        let old = old.as_handle().unwrap();
        assert_eq!(old.invoke("val", "get", &[]).unwrap(), Value::Int(10));
    }

    #[test]
    fn replace_unknown_child_fails() {
        let comp = CompositionBuilder::new("comp").build().unwrap();
        let r = comp.invoke(
            COMPOSITION_IFACE,
            "replace",
            &[
                Value::Str("ghost".into()),
                Value::Handle(named_const("g", 0)),
            ],
        );
        assert!(matches!(r, Err(ObjError::Binding(_))));
    }

    #[test]
    fn export_validates_child_and_interface() {
        assert!(CompositionBuilder::new("c")
            .export("val", "missing")
            .build()
            .is_err());
        assert!(CompositionBuilder::new("c")
            .child("a", named_const("a", 1))
            .export("wrong-iface", "a")
            .build()
            .is_err());
    }

    #[test]
    fn duplicate_child_is_an_error() {
        assert!(CompositionBuilder::new("c")
            .child("a", named_const("a", 1))
            .child("a", named_const("a", 2))
            .build()
            .is_err());
    }

    #[test]
    fn compositions_nest_recursively() {
        let inner = CompositionBuilder::new("inner")
            .child("leaf", named_const("leaf", 7))
            .export("val", "leaf")
            .build()
            .unwrap();
        let outer = CompositionBuilder::new("outer")
            .child("inner", inner)
            .export("val", "inner")
            .build()
            .unwrap();
        assert_eq!(outer.invoke("val", "get", &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn fallback_covers_methods_added_after_composition() {
        let child = named_const("c", 5);
        let comp = CompositionBuilder::new("comp")
            .child("c", child.clone())
            .export("val", "c")
            .build()
            .unwrap();
        // Extend the child's interface after the composition was built.
        let mut extended = Interface::new("val");
        extended.insert_method(
            MethodSig::new("get", &[], TypeTag::Int),
            std::sync::Arc::new(|_: &ObjRef, _: &[Value]| Ok(Value::Int(5))),
        );
        extended.insert_method(
            MethodSig::new("twice", &[], TypeTag::Int),
            std::sync::Arc::new(|_: &ObjRef, _: &[Value]| Ok(Value::Int(10))),
        );
        child.export_interface(extended);
        assert_eq!(comp.invoke("val", "twice", &[]).unwrap(), Value::Int(10));
    }
}
