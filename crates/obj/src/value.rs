//! Dynamic values passed across interface boundaries.
//!
//! Methods in the Paramecium object model are language independent, so
//! arguments and results are carried as self-describing [`Value`]s. Every
//! variant is immutable once built — a byte string is a refcounted view —
//! so a value crosses a protection-domain boundary as it is: the proxy
//! charges its [`Value::marshalled_size`] and translates only object
//! handles, which become proxies.

use bytes::Bytes;

use crate::{error::ObjError, object::ObjRef, typeinfo::TypeTag, ObjResult};

/// A dynamically typed value crossing an interface boundary.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// The absence of a value (`void`).
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer (also used for addresses and sizes).
    Int(i64),
    /// A UTF-8 string, e.g. an instance name.
    Str(String),
    /// An opaque byte string, e.g. a network packet or a component image.
    Bytes(Bytes),
    /// A reference to another object instance.
    ///
    /// When a value containing a handle crosses a protection-domain boundary
    /// the directory service replaces it with a proxy; inside one domain it
    /// is an ordinary reference.
    Handle(ObjRef),
    /// A heterogeneous sequence of values.
    List(Vec<Value>),
}

impl Value {
    /// Returns the [`TypeTag`] describing this value.
    pub fn tag(&self) -> TypeTag {
        match self {
            Value::Unit => TypeTag::Unit,
            Value::Bool(_) => TypeTag::Bool,
            Value::Int(_) => TypeTag::Int,
            Value::Str(_) => TypeTag::Str,
            Value::Bytes(_) => TypeTag::Bytes,
            Value::Handle(_) => TypeTag::Handle,
            Value::List(_) => TypeTag::List,
        }
    }

    /// Extracts a boolean, or reports a type mismatch.
    pub fn as_bool(&self) -> ObjResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ObjError::type_mismatch(TypeTag::Bool, other.tag())),
        }
    }

    /// Extracts an integer, or reports a type mismatch.
    pub fn as_int(&self) -> ObjResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(ObjError::type_mismatch(TypeTag::Int, other.tag())),
        }
    }

    /// Extracts an integer as a `T` (a port, an address, a count), or
    /// reports a type mismatch or a value `T` cannot hold: an argument is
    /// checked where it crosses the object boundary, never truncated.
    pub fn as_int_in<T: TryFrom<i64>>(&self) -> ObjResult<T> {
        let i = self.as_int()?;
        T::try_from(i).map_err(|_| {
            ObjError::failed(format!(
                "{i} is out of range for {}",
                std::any::type_name::<T>()
            ))
        })
    }

    /// Extracts a string slice, or reports a type mismatch.
    pub fn as_str(&self) -> ObjResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(ObjError::type_mismatch(TypeTag::Str, other.tag())),
        }
    }

    /// Extracts the byte string, or reports a type mismatch.
    pub fn as_bytes(&self) -> ObjResult<&Bytes> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(ObjError::type_mismatch(TypeTag::Bytes, other.tag())),
        }
    }

    /// Extracts an object handle, or reports a type mismatch.
    pub fn as_handle(&self) -> ObjResult<&ObjRef> {
        match self {
            Value::Handle(h) => Ok(h),
            other => Err(ObjError::type_mismatch(TypeTag::Handle, other.tag())),
        }
    }

    /// Extracts a list, or reports a type mismatch.
    pub fn as_list(&self) -> ObjResult<&[Value]> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(ObjError::type_mismatch(TypeTag::List, other.tag())),
        }
    }

    /// Returns the marshalled size of this value in bytes: a one-byte tag,
    /// then the payload — a 4-byte length before a string's, a byte
    /// string's or a list's contents.
    ///
    /// Used by the cross-domain proxy machinery to charge marshalling costs
    /// proportional to argument size, as a real kernel would pay to map or
    /// copy arguments between address spaces.
    pub fn marshalled_size(&self) -> usize {
        match self {
            Value::Unit => 1,
            Value::Bool(_) => 2,
            Value::Int(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
            // A handle marshals as a 64-bit proxy slot index.
            Value::Handle(_) => 9,
            Value::List(l) => 5 + l.iter().map(Value::marshalled_size).sum::<usize>(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            // Handles compare by identity: two references to the same
            // instance are equal, distinct instances are not.
            (Value::Handle(a), Value::Handle(b)) => std::sync::Arc::ptr_eq(a, b),
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl From<()> for Value {
    fn from((): ()) -> Self {
        Value::Unit
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Bytes> for Value {
    fn from(b: Bytes) -> Self {
        Value::Bytes(b)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(Bytes::from(b))
    }
}

impl From<ObjRef> for Value {
    fn from(h: ObjRef) -> Self {
        Value::Handle(h)
    }
}

impl From<Vec<Value>> for Value {
    fn from(l: Vec<Value>) -> Self {
        Value::List(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_check_types() {
        assert!(Value::Int(3).as_int().is_ok());
        assert!(Value::Int(3).as_str().is_err());
        assert!(Value::Str("s".into()).as_bytes().is_err());
        assert!(Value::Unit.as_bool().is_err());
        assert!(Value::List(vec![]).as_list().is_ok());
    }

    #[test]
    fn narrowed_integers_are_checked_not_truncated() {
        assert_eq!(Value::Int(53).as_int_in::<u16>(), Ok(53));
        assert_eq!(Value::Int(65_535).as_int_in::<u16>(), Ok(u16::MAX));
        let err = Value::Int(65_589).as_int_in::<u16>().unwrap_err();
        assert_eq!(err, ObjError::failed("65589 is out of range for u16"));
        assert!(Value::Int(-1).as_int_in::<u32>().is_err());
        assert!(Value::Int(1 << 32).as_int_in::<u32>().is_err());
        assert!(Value::Int(-1).as_int_in::<usize>().is_err());
        assert!(matches!(
            Value::Str("53".into()).as_int_in::<u16>(),
            Err(ObjError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn marshalled_size_tracks_payload() {
        assert_eq!(Value::Unit.marshalled_size(), 1);
        assert_eq!(Value::Int(7).marshalled_size(), 9);
        assert_eq!(Value::Str("abcd".into()).marshalled_size(), 9);
        let big = Value::Bytes(Bytes::from(vec![0u8; 1500]));
        assert_eq!(big.marshalled_size(), 1505);
    }

    #[test]
    fn handle_equality_is_identity() {
        let a = crate::ObjectBuilder::new("x").build();
        let b = crate::ObjectBuilder::new("x").build();
        assert_eq!(Value::Handle(a.clone()), Value::Handle(a.clone()));
        assert_ne!(Value::Handle(a), Value::Handle(b));
    }
}
