//! Protection domains.
//!
//! A protection domain *is* an MMU context plus a name-space view. The
//! nucleus's four services all use the domain as their unit of granularity.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::RwLock;

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
    pub fn is_kernel(self) -> bool {
        self == KERNEL_DOMAIN
    }
}

impl From<ContextId> for DomainId {
    fn from(c: ContextId) -> Self {
        DomainId(c.0)
    }
}

/// A protection domain: context, name-space view, and bookkeeping.
pub struct Domain {
    /// Domain identifier (== MMU context).
    pub id: DomainId,
    /// Human-readable name, e.g. `"kernel"` or `"app:fft"`.
    pub name: String,
    /// The domain's view of the object name space (possibly with local
    /// overrides; inherited from the creating domain).
    pub namespace: Arc<NameSpace>,
    /// Instance paths of components loaded into this domain.
    pub loaded: RwLock<BTreeSet<String>>,
}

impl Domain {
    /// Creates a domain record.
    pub fn new(id: DomainId, name: impl Into<String>, namespace: Arc<NameSpace>) -> Arc<Self> {
        Arc::new(Domain {
            id,
            name: name.into(),
            namespace,
            loaded: RwLock::new(BTreeSet::new()),
        })
    }

    /// Records that a component instance was loaded here. A path loaded
    /// again (after an unregister) is recorded once: a kernel that cycles
    /// extensions through the same paths must not grow by a string a load.
    pub fn note_loaded(&self, path: &str) {
        let mut loaded = self.loaded.write();
        if !loaded.contains(path) {
            loaded.insert(path.to_owned());
        }
    }

    /// Instance paths loaded into this domain, in path order.
    pub fn loaded_paths(&self) -> Vec<String> {
        self.loaded.read().iter().cloned().collect()
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

    #[test]
    fn loaded_paths_accumulate() {
        let d = Domain::new(DomainId(1), "app", NameSpace::root());
        d.note_loaded("/app/fft");
        d.note_loaded("/app/alloc");
        d.note_loaded("/app/fft");
        assert_eq!(d.loaded_paths(), vec!["/app/alloc", "/app/fft"]);
    }
}
