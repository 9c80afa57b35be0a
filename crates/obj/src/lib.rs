//! The Paramecium object model.
//!
//! This crate implements the *language-independent software architecture*
//! from section 2 of the paper: coarse-grained **objects** that export one or
//! more **named interfaces** (sets of methods, state pointers and type
//! information), **method delegation** for code sharing, and **composition**
//! (objects built out of other object instances, applicable recursively).
//!
//! Both operating-system components (schedulers, device drivers, protocol
//! layers) and application components (allocators, matrices) are written
//! against this one architecture, which is what allows them to be
//! interchanged, interposed upon, and moved between protection domains.
//!
//! Because the architecture is language independent, method dispatch here is
//! *dynamic*: methods take and return [`Value`]s, are called by name, and are
//! described by [`MethodSig`] type information. That information is fixed
//! when the code is written, so every interface and method name is a
//! `&'static str` and every parameter list a `&'static [TypeTag]`. Dynamic
//! dispatch is what makes generic interposing agents possible: an interposer
//! copies the signatures of the object it stands for and forwards every
//! method it does not reimplement, exactly as the paper requires. An
//! interface name fixes its signature set, so a swap is type-checked where
//! objects are joined — `retarget`, `replace`, interposition in the name
//! space — by comparing signatures ([`Object::conforms`]), and a call never
//! meets a method its target lacks. It also models the binary interface-table convention a real
//! Paramecium implementation uses: an object's interfaces, and each
//! interface's methods, are fixed when it is built, so [`Object::invoke`]
//! is two short scans of tables that never change — no lock, no cache. A
//! service changes by interposition, not by editing a live object.
//!
//! # Examples
//!
//! ```
//! use paramecium_obj::{ObjectBuilder, TypeTag, Value};
//!
//! let counter = ObjectBuilder::new("counter")
//!     .state(0i64)
//!     .interface("counter", |i| {
//!         i.method("incr", &[TypeTag::Int], TypeTag::Int, |this, args| {
//!             let by = args[0].as_int()?;
//!             this.with_state(|n: &mut i64| {
//!                 *n += by;
//!                 Ok(Value::Int(*n))
//!             })
//!         })
//!     })
//!     .build();
//!
//! let v = counter.invoke("counter", "incr", &[Value::Int(5)]).unwrap();
//! assert_eq!(v.as_int().unwrap(), 5);
//! ```

#![deny(unsafe_code)]

pub mod builder;
pub mod compose;
pub mod counters;
pub mod delegate;
pub mod error;
pub mod forward;
pub mod interface;
pub mod interpose;
pub mod object;
pub mod sum64;
#[allow(unsafe_code)]
pub mod trylock;
pub mod typeinfo;
pub mod value;

pub use builder::{InterfaceBuilder, ObjectBuilder};
pub use compose::CompositionBuilder;
pub use delegate::delegate_interface;
pub use error::ObjError;
pub use forward::{forwarding_interface, Forward, Target};
pub use interface::{BoundMethod, Interface};
pub use interpose::InterposerBuilder;
pub use object::{ObjRef, Object};
pub use trylock::{TryLock, TryLockGuard};
pub use typeinfo::{MethodSig, TypeSite, TypeTag};
pub use value::Value;

/// Convenient result alias used throughout the object model.
pub type ObjResult<T> = Result<T, ObjError>;
