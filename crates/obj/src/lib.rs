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
//! *dynamic*: methods take and return [`Value`]s and are described by
//! [`MethodSig`] type information. This is deliberate — it is what makes
//! generic interposing agents possible (an interposer can forward methods it
//! has never seen, exactly as the paper requires), and it models the binary
//! interface-table convention a real Paramecium implementation uses.
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

pub mod builder;
pub mod compose;
pub mod delegate;
pub mod error;
pub mod forward;
pub mod interface;
pub mod interpose;
pub mod object;
pub(crate) mod snapcell;
pub mod sum64;
pub mod trylock;
pub mod typeinfo;
pub mod value;

pub use builder::{InterfaceBuilder, ObjectBuilder};
pub use compose::CompositionBuilder;
pub use delegate::delegate_interface;
pub use error::ObjError;
pub use forward::{forwarding_interface, Forward};
pub use interface::{BoundMethod, Interface, Method, MethodFn};
pub use interpose::InterposerBuilder;
pub use object::{ObjRef, Object, ResolvedMethod};
pub use trylock::{TryLock, TryLockGuard};
pub use typeinfo::{InterfaceDescriptor, MethodSig, TypeTag};
pub use value::ArgFrame;
pub use value::Value;

/// Convenient result alias used throughout the object model.
pub type ObjResult<T> = Result<T, ObjError>;
