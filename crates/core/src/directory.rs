//! The directory service: a hierarchical name space for object instances.
//!
//! "Each object has its own instance name and is registered in a
//! hierarchical name space together with its object handle. … The main
//! advantage of using a name space for object instances is its ability to
//! be reconfigured." (paper, section 2).
//!
//! The name space holds an object's instance name: the path is the key
//! its handle is bound under, and the object keeps no copy. One object
//! may be bound under several paths, each its own name. A lookup takes
//! only read locks and writes nothing.
//!
//! Name spaces form a tree: a child inherits everything from its parent
//! but may carry *overrides* — local bindings consulted before the parent
//! — which is how an application controls exactly which component
//! implementations it imports. Interposing on a *shared* service instead
//! replaces the entry in the name space where it was registered, affecting
//! every future lookup.

use std::{
    collections::{BTreeMap, BTreeSet},
    sync::Arc,
};

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

/// A (possibly child) name space.
pub struct NameSpace {
    parent: Option<Arc<NameSpace>>,
    entries: RwLock<BTreeMap<String, NsEntry>>,
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
        self.entries
            .write()
            .remove(path)
            .ok_or_else(|| CoreError::Name(format!("`{path}` is not registered here")))
    }

    /// Looks up `path`, consulting local entries (overrides) first, then
    /// the parent chain.
    pub fn lookup(&self, path: &str) -> CoreResult<NsEntry> {
        check_path(path)?;
        let mut ns = self;
        loop {
            if let Some(e) = ns.entries.read().get(path) {
                return Ok(e.clone());
            }
            match &ns.parent {
                Some(p) => ns = p,
                None => return Err(CoreError::Name(format!("`{path}` not found"))),
            }
        }
    }

    /// Lists all paths visible from this name space under `prefix`: the
    /// path `prefix` itself and every path that continues it with `/`
    /// (`/dev` lists `/dev/nic`, not `/device`; `/` lists everything).
    /// A path bound both here and in a parent is listed once.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let prefix = prefix.trim_end_matches('/');
        let mut seen = BTreeSet::new();
        let mut ns = Some(self);
        while let Some(n) = ns {
            for path in n.entries.read().keys() {
                let rest = path.strip_prefix(prefix);
                if rest.is_some_and(|rest| rest.is_empty() || rest.starts_with('/')) {
                    seen.insert(path.clone());
                }
            }
            ns = n.parent.as_deref();
        }
        seen.into_iter().collect()
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
        assert_eq!(ns.unregister("/svc").unwrap().obj.class(), "s");
        assert!(ns.lookup("/svc").is_err());
        assert!(ns.unregister("/svc").is_err());
    }

    #[test]
    fn children_inherit_from_parent() {
        let root = NameSpace::root();
        root.register("/shared/network", entry("nic")).unwrap();
        let child = NameSpace::child_of(&root, []);
        assert_eq!(child.lookup("/shared/network").unwrap().obj.class(), "nic");
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
    fn list_matches_whole_segments() {
        let ns = NameSpace::root();
        for path in ["/dev/nic", "/device/x", "/dev"] {
            ns.register(path, entry("x")).unwrap();
        }
        assert_eq!(ns.list("/dev"), vec!["/dev", "/dev/nic"]);
        assert_eq!(ns.list("/dev/nic"), vec!["/dev/nic"]);
        assert_eq!(ns.list("/"), vec!["/dev", "/dev/nic", "/device/x"]);
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
