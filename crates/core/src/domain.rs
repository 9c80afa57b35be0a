//! Protection domains.
//!
//! A protection domain *is* an MMU context plus a name-space view. The
//! nucleus's four services all use the domain as their unit of granularity.

use std::sync::Arc;

use paramecium_machine::mmu::ContextId;

use crate::directory::NameSpace;

/// Identifier of a protection domain. Numerically equal to the MMU context
/// number backing the domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u16);

/// The kernel protection domain (MMU context 0).
pub const KERNEL_DOMAIN: DomainId = DomainId(0);

impl DomainId {
    /// The MMU context backing this domain.
    pub fn context(self) -> ContextId {
        ContextId(self.0)
    }

    /// True for the kernel domain.
    pub(crate) fn is_kernel(self) -> bool {
        self == KERNEL_DOMAIN
    }
}

impl From<ContextId> for DomainId {
    fn from(c: ContextId) -> Self {
        DomainId(c.0)
    }
}

/// A protection domain: a context and a name-space view.
pub struct Domain {
    /// Domain identifier (== MMU context).
    pub id: DomainId,
    /// Human-readable name, e.g. `"kernel"` or `"app:fft"`.
    pub name: String,
    /// The domain's view of the object name space (possibly with local
    /// overrides; inherited from the creating domain).
    pub namespace: Arc<NameSpace>,
}

impl Domain {
    /// Creates a domain record.
    pub fn new(id: DomainId, name: impl Into<String>, namespace: Arc<NameSpace>) -> Arc<Self> {
        Arc::new(Domain {
            id,
            name: name.into(),
            namespace,
        })
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_ids_map_to_contexts() {
        assert_eq!(DomainId(3).context(), ContextId(3));
        assert_eq!(DomainId::from(ContextId(7)), DomainId(7));
        assert!(KERNEL_DOMAIN.is_kernel());
        assert!(!DomainId(1).is_kernel());
    }
}
