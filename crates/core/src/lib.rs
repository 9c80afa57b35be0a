//! The Paramecium nucleus (paper, section 3).
//!
//! "The Paramecium system architecture consists of a nucleus and a
//! repository of system components. The nucleus is a protected and trusted
//! component which implements only those services that cannot be moved into
//! the application without jeopardizing the system's integrity."
//!
//! The nucleus provides exactly four services, all using the protection
//! domain (MMU context) as their unit of granularity:
//!
//! - [`events`] — processor event management: traps and interrupts
//!   dispatched to registered call-backs `(context, function)`,
//! - [`memsvc`] — memory management: virtual/physical pages, exclusive or
//!   shared allocation, per-page fault call-backs, I/O-space allocation,
//! - [`directory`] — the hierarchical object name space with per-domain
//!   inheritance and overrides; importing across domains produces proxies,
//! - [`certsvc`] — certificate validation before a component is mapped
//!   into a protection domain.
//!
//! Everything else — thread packages, device drivers, protocol stacks,
//! virtual memory policies — lives *outside* the nucleus and is loaded
//! from the [`repository`] into whichever protection domain the user
//! configures, subject to certification.
//!
//! The nucleus itself is an object [composition](paramecium_obj::compose):
//! [`nucleus::Nucleus::boot`] statically composes the four service objects
//! and registers them in the name space under `/nucleus/…`, so kernel
//! services are bound, interposed upon and measured with exactly the same
//! mechanisms as application components.

#![forbid(unsafe_code)]

pub mod certsvc;
pub mod directory;
pub mod domain;
pub mod events;
pub mod loader;
pub mod memsvc;
pub mod nucleus;
pub mod proxy;
pub mod repository;

pub use directory::NameSpace;
pub use domain::{Domain, DomainId};
pub use loader::{LoadOptions, Placement, Protection};
pub use nucleus::Nucleus;
pub use repository::{ComponentKind, Repository};

use paramecium_cert::CertError;
use paramecium_machine::MachineError;
use paramecium_obj::ObjError;

/// Errors surfaced by nucleus operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// An object-model operation failed.
    Obj(ObjError),
    /// A machine/hardware operation failed.
    Machine(MachineError),
    /// Certification failed.
    Cert(CertError),
    /// A name-space path was malformed or absent.
    Name(String),
    /// The referenced protection domain does not exist.
    NoSuchDomain(u16),
    /// The operation violates domain policy (e.g. loading an uncertified
    /// component into the kernel domain).
    Policy(String),
    /// The component repository has no such component.
    NoSuchComponent(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Obj(e) => write!(f, "object error: {e}"),
            CoreError::Machine(e) => write!(f, "machine error: {e}"),
            CoreError::Cert(e) => write!(f, "certification error: {e}"),
            CoreError::Name(m) => write!(f, "name error: {m}"),
            CoreError::NoSuchDomain(d) => write!(f, "no such protection domain {d}"),
            CoreError::Policy(m) => write!(f, "policy violation: {m}"),
            CoreError::NoSuchComponent(n) => write!(f, "no component `{n}` in repository"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ObjError> for CoreError {
    fn from(e: ObjError) -> Self {
        CoreError::Obj(e)
    }
}

impl From<MachineError> for CoreError {
    fn from(e: MachineError) -> Self {
        CoreError::Machine(e)
    }
}

/// For a native component's factory: an object or machine error passes
/// up as it is, any other keeps its text.
impl From<CoreError> for ObjError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Obj(e) => e,
            CoreError::Machine(e) => e.into(),
            e => ObjError::failed(e.to_string()),
        }
    }
}

impl From<CertError> for CoreError {
    fn from(e: CertError) -> Self {
        CoreError::Cert(e)
    }
}

/// Convenient result alias.
pub type CoreResult<T> = Result<T, CoreError>;
