//! Interface type information.
//!
//! Every interface carries *type information* (paper section 2: "an
//! interface is a set of methods, state pointers and type information").
//! That information is fixed when the code is written, so names and
//! parameter lists are `'static` data the signatures borrow, never heap
//! copies. Signatures are checked on every dynamic invocation, and a
//! forwarder (interposer, composition, delegate or proxy) installs each
//! forward under its target's own signature.

use crate::{error::ObjError, value::Value, ObjResult};

/// The type of one method parameter or result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TypeTag {
    /// No value.
    Unit,
    /// Boolean.
    Bool,
    /// Signed 64-bit integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Opaque byte string.
    Bytes,
    /// Object handle.
    Handle,
    /// Heterogeneous list.
    List,
}

impl std::fmt::Display for TypeTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TypeTag::Unit => "unit",
            TypeTag::Bool => "bool",
            TypeTag::Int => "int",
            TypeTag::Str => "str",
            TypeTag::Bytes => "bytes",
            TypeTag::Handle => "handle",
            TypeTag::List => "list",
        };
        f.write_str(s)
    }
}

/// Where a value of the wrong type was met, for an
/// [`ObjError::TypeMismatch`]: the signature's own `'static` name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TypeSite {
    /// A value outside any signature (an entry of a list, say).
    Value,
    /// Argument `.1` (from 0) of the method named.
    Argument(&'static str, usize),
    /// The result of the method named.
    Result(&'static str),
}

impl std::fmt::Display for TypeSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeSite::Value => f.write_str("value"),
            TypeSite::Argument(method, i) => write!(f, "argument {i} of `{method}`"),
            TypeSite::Result(method) => write!(f, "result of `{method}`"),
        }
    }
}

/// The signature of one interface method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MethodSig {
    /// Method name, unique within its interface.
    pub name: &'static str,
    /// Parameter types, in order.
    pub params: &'static [TypeTag],
    /// Result type.
    pub returns: TypeTag,
}

impl MethodSig {
    /// Creates a signature.
    pub const fn new(name: &'static str, params: &'static [TypeTag], returns: TypeTag) -> Self {
        MethodSig {
            name,
            params,
            returns,
        }
    }

    /// Checks `args` against this signature.
    pub(crate) fn check_args(&self, args: &[Value]) -> ObjResult<()> {
        if args.len() != self.params.len() {
            return Err(ObjError::Arity {
                method: self.name,
                expected: self.params.len(),
                got: args.len(),
            });
        }
        for (i, (&want, got)) in self.params.iter().zip(args).enumerate() {
            if want != got.tag() {
                return Err(ObjError::TypeMismatch {
                    site: TypeSite::Argument(self.name, i),
                    expected: want,
                    got: got.tag(),
                });
            }
        }
        Ok(())
    }

    /// Checks a returned value against this signature.
    pub(crate) fn check_result(&self, result: &Value) -> ObjResult<()> {
        if self.returns == result.tag() {
            Ok(())
        } else {
            Err(ObjError::TypeMismatch {
                site: TypeSite::Result(self.name),
                expected: self.returns,
                got: result.tag(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_args_enforces_arity() {
        let sig = MethodSig::new("m", &[TypeTag::Int, TypeTag::Str], TypeTag::Unit);
        assert!(sig
            .check_args(&[Value::Int(1), Value::Str("x".into())])
            .is_ok());
        let err = sig.check_args(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            ObjError::Arity {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn check_args_enforces_types() {
        let sig = MethodSig::new("m", &[TypeTag::Int], TypeTag::Unit);
        let err = sig.check_args(&[Value::Str("oops".into())]).unwrap_err();
        assert!(matches!(
            err,
            ObjError::TypeMismatch {
                expected: TypeTag::Int,
                got: TypeTag::Str,
                ..
            }
        ));
    }

    #[test]
    fn check_result_enforces_return_type() {
        let sig = MethodSig::new("m", &[], TypeTag::Int);
        assert!(sig.check_result(&Value::Int(1)).is_ok());
        let err = sig.check_result(&Value::Unit).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type mismatch in result of `m`: expected int, got unit"
        );
        let err = ObjError::type_mismatch(TypeTag::Int, TypeTag::Str);
        assert_eq!(
            err.to_string(),
            "type mismatch in value: expected int, got str"
        );
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(TypeTag::Bytes.to_string(), "bytes");
        assert_eq!(TypeTag::List.to_string(), "list");
    }
}
