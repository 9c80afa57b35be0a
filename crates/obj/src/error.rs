//! Errors produced by the object model. A caller that acts on a failure
//! matches its variant, never its text; a machine error keeps its type on
//! its way up ([`ObjError::Machine`]).

use paramecium_machine::MachineError;

use crate::typeinfo::{TypeSite, TypeTag};

/// Errors returned by object-model operations and method invocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjError {
    /// The object does not export an interface with the given name.
    NoSuchInterface {
        /// Class name of the object that was queried.
        class: String,
        /// Interface name that was requested.
        interface: String,
    },
    /// The interface has no method with the given name.
    NoSuchMethod {
        /// Interface that was searched.
        interface: String,
        /// Method name that was requested.
        method: String,
    },
    /// Wrong number of arguments.
    Arity {
        /// Method whose signature was violated.
        method: &'static str,
        /// Number of parameters the signature declares.
        expected: usize,
        /// Number of arguments supplied.
        got: usize,
    },
    /// An argument or result had the wrong type.
    TypeMismatch {
        /// Where the value was met.
        site: TypeSite,
        /// Declared type.
        expected: TypeTag,
        /// Supplied type.
        got: TypeTag,
    },
    /// The object's instance state was not of the type the method expected.
    StateType {
        /// Class name of the object.
        class: String,
    },
    /// A name-space or binding operation failed.
    Binding(String),
    /// The method itself failed; carries a component-defined message
    /// that no caller acts on.
    Failed(String),
    /// The machine under the method failed: a device fault, a refused
    /// sector, a power failure. Prints `method failed: ` and its text.
    Machine(MachineError),
    /// The operation is not permitted in the calling domain.
    Denied(String),
    /// The callee of a cross-domain call panicked. The fault stayed in
    /// its domain: the call returned, and the caller runs in its own
    /// context again.
    DomainFault {
        /// Id of the protection domain the callee ran in.
        domain: u16,
    },
}

impl ObjError {
    /// Shorthand for a [`ObjError::TypeMismatch`] of a value outside any signature.
    pub fn type_mismatch(expected: TypeTag, got: TypeTag) -> Self {
        ObjError::TypeMismatch {
            site: TypeSite::Value,
            expected,
            got,
        }
    }

    /// Shorthand constructor for [`ObjError::Failed`].
    pub fn failed(msg: impl Into<String>) -> Self {
        ObjError::Failed(msg.into())
    }
}

impl std::fmt::Display for ObjError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjError::NoSuchInterface { class, interface } => {
                write!(
                    f,
                    "object of class `{class}` exports no interface `{interface}`"
                )
            }
            ObjError::NoSuchMethod { interface, method } => {
                write!(f, "interface `{interface}` has no method `{method}`")
            }
            ObjError::Arity {
                method,
                expected,
                got,
            } => {
                write!(f, "method `{method}` takes {expected} arguments, got {got}")
            }
            ObjError::TypeMismatch {
                site,
                expected,
                got,
            } => {
                write!(f, "type mismatch in {site}: expected {expected}, got {got}")
            }
            ObjError::StateType { class } => {
                write!(f, "instance state of `{class}` has unexpected type")
            }
            ObjError::Binding(m) => write!(f, "binding error: {m}"),
            ObjError::Failed(m) => write!(f, "method failed: {m}"),
            ObjError::Machine(e) => write!(f, "method failed: {e}"),
            ObjError::Denied(m) => write!(f, "permission denied: {m}"),
            ObjError::DomainFault { domain } => write!(f, "domain {domain} faulted"),
        }
    }
}

impl std::error::Error for ObjError {}

impl From<MachineError> for ObjError {
    fn from(e: MachineError) -> Self {
        ObjError::Machine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ObjError::NoSuchInterface {
            class: "nic".into(),
            interface: "stats".into(),
        };
        let s = e.to_string();
        assert!(s.contains("nic") && s.contains("stats"));

        let e = ObjError::Arity {
            method: "send",
            expected: 2,
            got: 0,
        };
        assert!(e.to_string().contains("takes 2 arguments"));

        // A machine error prints as the message it used to be turned into.
        for m in [MachineError::PowerFailure, MachineError::Transient("disk")] {
            let want = ObjError::failed(m.to_string()).to_string();
            assert_eq!(ObjError::from(m).to_string(), want);
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&ObjError::failed("x"));
    }
}
