//! The directory service: a hierarchical name space for object instances.
//!
//! "Each object has its own instance name and is registered in a
//! hierarchical name space together with its object handle. … The main
//! advantage of using a name space for object instances is its ability to
//! be reconfigured." (paper, section 2).
//!
//! Name spaces form a tree: a child inherits everything from its parent
//! but may carry *overrides* — local bindings consulted before the parent
//! — which is how an application controls exactly which component
//! implementations it imports. Interposing on a *shared* service instead
//! replaces the entry in the name space where it was registered, affecting
//! every future lookup.

use std::{collections::BTreeMap, sync::Arc};

use parking_lot::RwLock;

use paramecium_obj::ObjRef;

use crate::{domain::DomainId, CoreError, CoreResult};

/// One name-space binding.
#[derive(Clone)]
pub struct NsEntry {
    /// The object handle.
    pub obj: ObjRef,
    /// The protection domain the object lives in. Lookups from other
    /// domains import through a proxy.
    pub home: DomainId,
}

impl std::fmt::Debug for NsEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NsEntry")
            .field("class", &self.obj.class())
            .field("home", &self.home)
            .finish()
    }
}

/// Lookup statistics (for the name-space experiment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NsStats {
    /// Lookups answered by a local entry or override.
    pub local_hits: u64,
    /// Lookups that walked to a parent.
    pub parent_walks: u64,
    /// Failed lookups.
    pub misses: u64,
}

/// A (possibly child) name space.
pub struct NameSpace {
    parent: Option<Arc<NameSpace>>,
    entries: RwLock<BTreeMap<String, NsEntry>>,
    stats: RwLock<NsStats>,
}

/// Checks and canonicalises a path: absolute, no empty or dot segments.
pub(crate) fn check_path(path: &str) -> CoreResult<&str> {
    if !path.starts_with('/') || path.len() < 2 {
        return Err(CoreError::Name(format!(
            "path `{path}` must be absolute and non-root"
        )));
    }
    if path.ends_with('/') {
        return Err(CoreError::Name(format!(
            "path `{path}` has a trailing slash"
        )));
    }
    for seg in path[1..].split('/') {
        if seg.is_empty() || seg == "." || seg == ".." {
            return Err(CoreError::Name(format!(
                "path `{path}` has segment `{seg}`"
            )));
        }
    }
    Ok(path)
}

impl NameSpace {
    /// Creates the root name space.
    pub fn root() -> Arc<Self> {
        Arc::new(NameSpace {
            parent: None,
            entries: RwLock::new(BTreeMap::new()),
            stats: RwLock::new(NsStats::default()),
        })
    }

    /// Creates a child name space inheriting from `parent`, seeded with
    /// `overrides` — the paper's mechanism for an object to "locally
    /// reconfigure its name space: that is, control the child objects it
    /// will import".
    pub(crate) fn child_of(
        parent: &Arc<NameSpace>,
        overrides: impl IntoIterator<Item = (String, NsEntry)>,
    ) -> Arc<Self> {
        Arc::new(NameSpace {
            parent: Some(parent.clone()),
            entries: RwLock::new(overrides.into_iter().collect()),
            stats: RwLock::new(NsStats::default()),
        })
    }

    /// Registers an object at `path` in *this* name space.
    ///
    /// Fails if the path is already bound here (use
    /// [`NameSpace::replace`] for interposition).
    pub fn register(&self, path: &str, entry: NsEntry) -> CoreResult<()> {
        check_path(path)?;
        let mut entries = self.entries.write();
        if entries.contains_key(path) {
            return Err(CoreError::Name(format!("`{path}` is already registered")));
        }
        entry.obj.set_instance_name(Some(path.to_owned()));
        entries.insert(path.to_owned(), entry);
        Ok(())
    }

    /// Replaces the binding at `path`, returning the previous entry. This
    /// is the interposition primitive: "replace the object handle in the
    /// name space. All further lookups … will result in a reference to the
    /// interposing agent."
    ///
    /// The replacement happens in the name space that actually holds the
    /// binding (possibly a parent), so it is visible to every inheritor.
    /// An agent that cannot [stand in] for the bound object is refused,
    /// and the old binding stays.
    ///
    /// [stand in]: paramecium_obj::Object::stands_in_for
    pub fn replace(&self, path: &str, entry: NsEntry) -> CoreResult<NsEntry> {
        check_path(path)?;
        let mut ns = self;
        loop {
            {
                let mut entries = ns.entries.write();
                if let Some(slot) = entries.get_mut(path) {
                    entry.obj.stands_in_for(&slot.obj)?;
                    entry.obj.set_instance_name(Some(path.to_owned()));
                    return Ok(std::mem::replace(slot, entry));
                }
            }
            match &ns.parent {
                Some(p) => ns = p,
                None => return Err(CoreError::Name(format!("`{path}` is not registered"))),
            }
        }
    }

    /// Removes the binding at `path` from this name space (not parents).
    pub fn unregister(&self, path: &str) -> CoreResult<NsEntry> {
        check_path(path)?;
        let entry = self
            .entries
            .write()
            .remove(path)
            .ok_or_else(|| CoreError::Name(format!("`{path}` is not registered here")))?;
        entry.obj.set_instance_name(None);
        Ok(entry)
    }

    /// Looks up `path`, consulting local entries (overrides) first, then
    /// the parent chain.
    pub fn lookup(&self, path: &str) -> CoreResult<NsEntry> {
        check_path(path)?;
        let mut walked = false;
        let mut ns = self;
        loop {
            if let Some(e) = ns.entries.read().get(path) {
                let mut stats = self.stats.write();
                if walked {
                    stats.parent_walks += 1;
                } else {
                    stats.local_hits += 1;
                }
                return Ok(e.clone());
            }
            match &ns.parent {
                Some(p) => {
                    walked = true;
                    ns = p;
                }
                None => {
                    self.stats.write().misses += 1;
                    return Err(CoreError::Name(format!("`{path}` not found")));
                }
            }
        }
    }

    /// Lists all paths visible from this name space under `prefix`
    /// (child entries shadow parent entries with the same path).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut seen = BTreeMap::new();
        let mut chain = Vec::new();
        let mut ns = Some(self);
        while let Some(n) = ns {
            chain.push(n);
            ns = n.parent.as_deref();
        }
        // Parents first so children shadow.
        for n in chain.iter().rev() {
            for (path, entry) in n.entries.read().iter() {
                if path.starts_with(prefix) {
                    seen.insert(path.clone(), entry.home);
                }
            }
        }
        seen.into_keys().collect()
    }

    /// Lookup statistics for *this* name space.
    pub fn stats(&self) -> NsStats {
        *self.stats.read()
    }

    /// Number of entries bound directly in this name space.
    pub fn local_len(&self) -> usize {
        self.entries.read().len()
    }
}

impl std::fmt::Debug for NameSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameSpace")
            .field("local_entries", &self.local_len())
            .field("has_parent", &self.parent.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::KERNEL_DOMAIN;
    use paramecium_obj::ObjectBuilder;

    fn obj(class: &str) -> ObjRef {
        ObjectBuilder::new(class).build()
    }

    fn entry(class: &str) -> NsEntry {
        NsEntry {
            obj: obj(class),
            home: KERNEL_DOMAIN,
        }
    }

    #[test]
    fn register_lookup_roundtrip() {
        let ns = NameSpace::root();
        ns.register("/dev/nic", entry("nic")).unwrap();
        let e = ns.lookup("/dev/nic").unwrap();
        assert_eq!(e.obj.class(), "nic");
        assert_eq!(e.obj.instance_name().as_deref(), Some("/dev/nic"));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let ns = NameSpace::root();
        ns.register("/x", entry("a")).unwrap();
        assert!(ns.register("/x", entry("b")).is_err());
    }

    #[test]
    fn path_validation() {
        let ns = NameSpace::root();
        for bad in ["", "/", "relative", "/a//b", "/a/", "/a/./b", "/a/../b"] {
            assert!(ns.register(bad, entry("x")).is_err(), "path {bad:?}");
        }
        assert!(ns.register("/a/b/c", entry("x")).is_ok());
    }

    #[test]
    fn unregister_removes_and_clears_name() {
        let ns = NameSpace::root();
        ns.register("/svc", entry("s")).unwrap();
        let e = ns.unregister("/svc").unwrap();
        assert_eq!(e.obj.instance_name(), None);
        assert!(ns.lookup("/svc").is_err());
        assert!(ns.unregister("/svc").is_err());
    }

    #[test]
    fn children_inherit_from_parent() {
        let root = NameSpace::root();
        root.register("/shared/network", entry("nic")).unwrap();
        let child = NameSpace::child_of(&root, []);
        assert_eq!(child.lookup("/shared/network").unwrap().obj.class(), "nic");
        let s = child.stats();
        assert_eq!(s.parent_walks, 1);
        assert_eq!(s.local_hits, 0);
    }

    #[test]
    fn overrides_shadow_parent() {
        let root = NameSpace::root();
        root.register("/lib/alloc", entry("default-alloc")).unwrap();
        let child = NameSpace::child_of(
            &root,
            [(
                "/lib/alloc".to_owned(),
                NsEntry {
                    obj: obj("debug-alloc"),
                    home: KERNEL_DOMAIN,
                },
            )],
        );
        assert_eq!(
            child.lookup("/lib/alloc").unwrap().obj.class(),
            "debug-alloc"
        );
        // The parent view is untouched.
        assert_eq!(
            root.lookup("/lib/alloc").unwrap().obj.class(),
            "default-alloc"
        );
    }

    #[test]
    fn replace_rebinds_in_owning_namespace() {
        let root = NameSpace::root();
        root.register("/shared/network", entry("nic")).unwrap();
        let child = NameSpace::child_of(&root, []);
        // Interpose from the child: the *root* binding is replaced, so
        // every other inheritor sees the agent.
        let old = child
            .replace(
                "/shared/network",
                NsEntry {
                    obj: obj("monitor"),
                    home: KERNEL_DOMAIN,
                },
            )
            .unwrap();
        assert_eq!(old.obj.class(), "nic");
        let sibling = NameSpace::child_of(&root, []);
        assert_eq!(
            sibling.lookup("/shared/network").unwrap().obj.class(),
            "monitor"
        );
    }

    #[test]
    fn replace_missing_fails() {
        let ns = NameSpace::root();
        assert!(ns.replace("/ghost", entry("x")).is_err());
    }

    #[test]
    fn list_merges_and_shadows() {
        let root = NameSpace::root();
        root.register("/a/one", entry("p1")).unwrap();
        root.register("/a/two", entry("p2")).unwrap();
        root.register("/b/three", entry("p3")).unwrap();
        let child = NameSpace::child_of(
            &root,
            [(
                "/a/one".to_owned(),
                NsEntry {
                    obj: obj("override"),
                    home: KERNEL_DOMAIN,
                },
            )],
        );
        child.register("/a/four", entry("c1")).unwrap();
        assert_eq!(child.list("/a"), vec!["/a/four", "/a/one", "/a/two"]);
        assert_eq!(
            child.list("/"),
            vec!["/a/four", "/a/one", "/a/two", "/b/three"]
        );
        assert_eq!(child.lookup("/a/one").unwrap().obj.class(), "override");
    }

    #[test]
    fn miss_statistics_count() {
        let ns = NameSpace::root();
        assert!(ns.lookup("/nope").is_err());
        assert_eq!(ns.stats().misses, 1);
    }

    #[test]
    fn deep_namespace_chain_resolves() {
        let root = NameSpace::root();
        root.register("/deep/svc", entry("svc")).unwrap();
        let mut ns = root.clone();
        for _ in 0..8 {
            ns = NameSpace::child_of(&ns, []);
        }
        assert_eq!(ns.lookup("/deep/svc").unwrap().obj.class(), "svc");
    }
}
