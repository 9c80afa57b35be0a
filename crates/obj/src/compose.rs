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

use std::{collections::BTreeMap, sync::Arc};

use crate::{
    builder::{InterfaceBuilder, ObjectBuilder},
    error::ObjError,
    forward::{forwarding_interface, Target},
    interface::Interface,
    object::ObjRef,
    typeinfo::TypeTag,
    value::Value,
    ObjResult,
};

/// A composition's children by local name, each in the target its
/// re-exported interfaces forward through.
type Children = BTreeMap<String, Arc<Target>>;

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
    /// Child instances by local name, each with the interfaces it backs.
    children: BTreeMap<String, (ObjRef, Vec<&'static str>)>,
    errors: Vec<String>,
}

impl CompositionBuilder {
    /// Starts a composition of the given class.
    pub fn new(class: impl Into<String>) -> Self {
        CompositionBuilder {
            class: class.into(),
            children: BTreeMap::new(),
            errors: Vec::new(),
        }
    }

    /// Adds a child instance under a local name.
    pub fn child(mut self, name: impl Into<String>, obj: ObjRef) -> Self {
        let (name, backed) = (name.into(), Vec::new());
        if self.children.insert(name.clone(), (obj, backed)).is_some() {
            self.errors.push(format!("duplicate child `{name}`"));
        }
        self
    }

    /// Re-exports `interface` of child `child` as an interface of the
    /// composition itself; of two exports of one name, the later wins.
    pub fn export(mut self, interface: impl Into<String>, child: impl Into<String>) -> Self {
        let (interface, child) = (interface.into(), child.into());
        let Some((obj, _)) = self.children.get(&child) else {
            self.errors.push(format!("no child named `{child}`"));
            return self;
        };
        let Ok(name) = obj.interface(&interface).map(Interface::name) else {
            self.errors.push(format!(
                "child `{child}` does not export interface `{interface}`"
            ));
            return self;
        };
        for (at, (_, backed)) in self.children.iter_mut() {
            backed.retain(|&n| n != name);
            if *at == child {
                backed.push(name);
            }
        }
        self
    }

    /// Finishes the composition.
    pub fn build(self) -> ObjResult<ObjRef> {
        if let Some(e) = self.errors.first() {
            return Err(ObjError::Binding(e.clone()));
        }
        let mut builder = ObjectBuilder::new(self.class);
        let children: Children = self
            .children
            .into_iter()
            .map(|(name, (obj, backed))| (name, Target::new(obj, backed)))
            .collect();

        // One forwarding interface per export, through its child's target,
        // so that `replace` takes effect for existing clients — this is the
        // late-binding property.
        for child in children.values() {
            for &name in child.forwarded() {
                builder = builder.raw_interface(forwarding_interface(
                    Interface::new(name),
                    child.clone(),
                    |_| None,
                ));
            }
        }

        Ok(builder.raw_interface(admin_interface(children)).build())
    }
}

/// Builds the `composition` administrative interface: listing and replacing
/// children.
fn admin_interface(children: Children) -> Interface {
    fn child<'a>(children: &'a Children, name: &str) -> ObjResult<&'a Arc<Target>> {
        children
            .get(name)
            .ok_or_else(|| ObjError::Binding(format!("no child named `{name}`")))
    }

    let children = Arc::new(children);
    let (all, each) = (children.clone(), children.clone());
    InterfaceBuilder::new(COMPOSITION_IFACE)
        .method("children", &[], TypeTag::List, move |_, _| {
            Ok(Value::List(
                all.keys().map(|k| Value::Str(k.clone())).collect(),
            ))
        })
        .method("child", &[TypeTag::Str], TypeTag::Handle, move |_, args| {
            Ok(Value::Handle(
                child(&each, args[0].as_str()?)?.get().clone(),
            ))
        })
        .method(
            "replace",
            &[TypeTag::Str, TypeTag::Handle],
            TypeTag::Handle,
            move |_, args| {
                let target = child(&children, args[0].as_str()?)?;
                Ok(Value::Handle(target.set(args[1].as_handle()?.clone())?))
            },
        )
        .finish()
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
    fn replacing_with_another_type_under_the_same_name_is_refused() {
        let comp = CompositionBuilder::new("comp")
            .child("c", named_const("c", 5))
            .export("val", "c")
            .build()
            .unwrap();
        // A child whose `val` has a method the first child's lacks is
        // another type: its clients were written against `get` alone.
        let grown = ObjectBuilder::new("c2")
            .interface("val", |i| {
                i.method("get", &[], TypeTag::Int, |_, _| Ok(Value::Int(5)))
                    .method("twice", &[], TypeTag::Int, |_, _| Ok(Value::Int(10)))
            })
            .build();
        let r = comp.invoke(
            COMPOSITION_IFACE,
            "replace",
            &[Value::Str("c".into()), Value::Handle(grown)],
        );
        assert!(matches!(r, Err(ObjError::Binding(_))), "{r:?}");
        // The composition still answers only `val`'s own methods, from
        // the child it kept.
        assert_eq!(comp.invoke("val", "get", &[]).unwrap(), Value::Int(5));
        assert_eq!(
            comp.invoke("val", "twice", &[]),
            Err(ObjError::NoSuchMethod {
                interface: "val".into(),
                method: "twice".into()
            })
        );
    }
}
