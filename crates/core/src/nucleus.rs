//! The nucleus: boot, domains, binding, loading.
//!
//! The nucleus is itself an object *composition* (paper, section 2: "the
//! Paramecium kernel is a composition, composed of objects that manage
//! interrupts, user contexts, etc."), statically composed at boot. Its
//! four service objects are registered under `/nucleus/…`, so user domains
//! reach kernel services through exactly the same bind-and-proxy mechanism
//! as any other cross-domain object — there is no separate syscall layer.

use std::{collections::BTreeMap, sync::Arc};

use parking_lot::{Mutex, RwLock};

use paramecium_cert::{certificate::Right, store::CertStore};
use paramecium_crypto::keys::PublicKey;
use paramecium_machine::{cost::Cycles, trap::TrapKind, Machine};
use paramecium_obj::{compose::CompositionBuilder, ObjRef, ObjectBuilder, TypeTag, Value};
use paramecium_sfi::bytecode::Program;

use crate::{
    certsvc::CertService,
    directory::{NameSpace, NsEntry},
    domain::{Domain, DomainId, KERNEL_DOMAIN},
    events::EventService,
    loader::{make_bytecode_object, soften, LoadOptions, LoadReport, Placement, Protection},
    memsvc::MemService,
    proxy::{make_proxy, ProxyCtx, ProxyStats},
    repository::{ComponentKind, Repository},
    CoreError, CoreResult,
};

/// Default VM step budget for loaded bytecode components.
pub const DEFAULT_STEP_BUDGET: u64 = 1 << 28;

/// The assembled Paramecium nucleus.
pub struct Nucleus {
    machine: Arc<Mutex<Machine>>,
    /// Processor event management.
    pub events: Arc<EventService>,
    /// Memory management.
    pub mem: Arc<MemService>,
    /// Certification service.
    pub certsvc: Arc<CertService>,
    /// The component repository.
    pub repository: Arc<Repository>,
    root_ns: Arc<NameSpace>,
    domains: RwLock<BTreeMap<u16, Arc<Domain>>>,
    proxy_stats: Arc<ProxyStats>,
    /// The kernel composition object (also at `/nucleus`).
    pub kernel_object: ObjRef,
    /// Step budget applied to loaded bytecode components.
    pub step_budget: u64,
    /// On-line certifier, if enabled (paper §4: "this does not exclude
    /// on-line certification by the kernel").
    online: RwLock<Option<OnlineCertifier>>,
}

/// A certifier resident in the kernel, minting certificates at load time
/// for components that arrive without one.
struct OnlineCertifier {
    certifier: Box<dyn paramecium_cert::Certifier>,
    chain: Vec<paramecium_cert::DelegationCert>,
}

impl Nucleus {
    /// Boots a nucleus on a fresh default machine, trusting `root_key`
    /// for certification.
    pub fn boot(root_key: PublicKey) -> CoreResult<Arc<Nucleus>> {
        Self::boot_on(Arc::new(Mutex::new(Machine::new())), root_key)
    }

    /// Boots on an existing machine (custom cost model or sizing).
    pub fn boot_on(machine: Arc<Mutex<Machine>>, root_key: PublicKey) -> CoreResult<Arc<Nucleus>> {
        let events = Arc::new(EventService::new());
        let mem = Arc::new(MemService::new(machine.clone()));
        let certsvc = Arc::new(CertService::new(machine.clone(), CertStore::new(root_key)));
        let repository = Arc::new(Repository::new());
        let root_ns = NameSpace::root();

        // Static composition of the kernel from its service objects.
        let events_obj = events_object(&events);
        let mem_obj = memory_object(&mem);
        let dir_obj = directory_object(&root_ns);
        let cert_obj = cert_object(&certsvc);
        let kernel_object = CompositionBuilder::new("paramecium-kernel")
            .child("events", events_obj.clone())
            .child("memory", mem_obj.clone())
            .child("directory", dir_obj.clone())
            .child("certification", cert_obj.clone())
            .export("events", "events")
            .export("memory", "memory")
            .export("directory", "directory")
            .export("certification", "certification")
            .build()?;

        let nucleus = Arc::new(Nucleus {
            machine,
            events,
            mem,
            certsvc,
            repository,
            root_ns: root_ns.clone(),
            domains: RwLock::new(BTreeMap::new()),
            proxy_stats: Arc::new(ProxyStats::default()),
            kernel_object: kernel_object.clone(),
            step_budget: DEFAULT_STEP_BUDGET,
            online: RwLock::new(None),
        });

        // The kernel domain sees the root name space directly.
        let kernel_domain = Domain::new(KERNEL_DOMAIN, "kernel", root_ns.clone());
        nucleus
            .domains
            .write()
            .insert(KERNEL_DOMAIN.0, kernel_domain);

        // Wire the page-fault vector to the memory service's per-page
        // handlers — the mechanism cross-domain proxies ride on.
        let mem_for_faults = nucleus.mem.clone();
        nucleus.events.register(
            TrapKind::PageFault.vector(),
            KERNEL_DOMAIN,
            Arc::new(move |trap| {
                if let Some(fault) = &trap.fault {
                    mem_for_faults.handle_fault(fault);
                }
            }),
        )?;

        // Register the kernel and its services in the name space.
        for (path, obj) in [
            ("/nucleus", kernel_object),
            ("/nucleus/events", events_obj),
            ("/nucleus/memory", mem_obj),
            ("/nucleus/directory", dir_obj),
            ("/nucleus/certification", cert_obj),
        ] {
            nucleus.root_ns.register(
                path,
                NsEntry {
                    obj,
                    home: KERNEL_DOMAIN,
                },
            )?;
        }
        Ok(nucleus)
    }

    /// The machine the nucleus runs on.
    pub fn machine(&self) -> &Arc<Mutex<Machine>> {
        &self.machine
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.machine.lock().now()
    }

    /// The root name space (the kernel domain's view).
    pub fn root_namespace(&self) -> &Arc<NameSpace> {
        &self.root_ns
    }

    /// Cross-domain traffic counters.
    pub fn proxy_stats(&self) -> &Arc<ProxyStats> {
        &self.proxy_stats
    }

    /// Advances simulated time and delivers any device interrupts raised.
    /// Returns the number of interrupts delivered.
    pub fn poll(&self, cycles: Cycles) -> usize {
        self.machine.lock().tick(cycles);
        self.events.drain_interrupts(&self.machine)
    }

    /// Creates a protection domain whose name space inherits from
    /// `parent`'s, seeded with `overrides` (the paper's local
    /// reconfiguration mechanism).
    pub fn create_domain(
        &self,
        name: impl Into<String>,
        parent: DomainId,
        overrides: impl IntoIterator<Item = (String, NsEntry)>,
    ) -> CoreResult<Arc<Domain>> {
        let parent_ns = self
            .domain(parent)
            .ok_or(CoreError::NoSuchDomain(parent.0))?
            .namespace
            .clone();
        let ctx = self.machine.lock().mmu.create_context();
        let id = DomainId::from(ctx);
        let ns = NameSpace::child_of(&parent_ns, overrides);
        let domain = Domain::new(id, name, ns);
        self.domains.write().insert(id.0, domain.clone());
        Ok(domain)
    }

    /// Looks up a domain record.
    pub fn domain(&self, id: DomainId) -> Option<Arc<Domain>> {
        self.domains.read().get(&id.0).cloned()
    }

    /// All live domains.
    pub fn domains(&self) -> Vec<Arc<Domain>> {
        self.domains.read().values().cloned().collect()
    }

    /// Destroys a domain: its MMU context, pages (respecting sharing) and
    /// record. The kernel domain cannot be destroyed.
    pub fn destroy_domain(&self, id: DomainId) -> CoreResult<()> {
        if id.is_kernel() {
            return Err(CoreError::Policy("cannot destroy the kernel domain".into()));
        }
        self.domains
            .write()
            .remove(&id.0)
            .ok_or(CoreError::NoSuchDomain(id.0))?;
        self.mem.destroy_domain(id)?;
        Ok(())
    }

    /// Registers an object at `path` in `domain`'s name space with that
    /// domain as its home.
    pub fn register(&self, domain: DomainId, path: &str, obj: ObjRef) -> CoreResult<()> {
        let d = self
            .domain(domain)
            .ok_or(CoreError::NoSuchDomain(domain.0))?;
        d.namespace.register(path, NsEntry { obj, home: domain })
    }

    /// Registers an object living in `home` into the **root** name space,
    /// making it visible to every domain (which import it through proxies
    /// unless they are `home` itself). This is how a user domain exports a
    /// service — e.g. a packet filter the kernel-side stack will call.
    pub fn register_shared(&self, home: DomainId, path: &str, obj: ObjRef) -> CoreResult<()> {
        if self.domain(home).is_none() {
            return Err(CoreError::NoSuchDomain(home.0));
        }
        self.root_ns.register(path, NsEntry { obj, home })
    }

    /// Replaces the binding at `path` with an interposing agent living in
    /// `agent_home`. Returns the previous object handle (which the agent
    /// typically wraps).
    pub fn interpose(&self, agent_home: DomainId, path: &str, agent: ObjRef) -> CoreResult<ObjRef> {
        let d = self
            .domain(agent_home)
            .ok_or(CoreError::NoSuchDomain(agent_home.0))?;
        let old = d.namespace.replace(
            path,
            NsEntry {
                obj: agent,
                home: agent_home,
            },
        )?;
        Ok(old.obj)
    }

    /// Binds to the object at `path` from `from`'s point of view.
    ///
    /// Same-domain bindings return the object handle directly; bindings to
    /// an object in another protection domain return a proxy (the import
    /// "causes a proxy to appear").
    pub fn bind(&self, from: DomainId, path: &str) -> CoreResult<ObjRef> {
        let d = self.domain(from).ok_or(CoreError::NoSuchDomain(from.0))?;
        let entry = d.namespace.lookup(path)?;
        {
            // A bind is a name-space walk plus handle fabrication.
            let mut m = self.machine.lock();
            let cost = m.cost.indirect_call;
            m.charge(cost);
        }
        if entry.home == from {
            Ok(entry.obj)
        } else {
            Ok(make_proxy(&self.proxy_ctx(), entry.obj, entry.home, from))
        }
    }

    /// Installs an on-line certifier: a certifier resident in the kernel
    /// that is consulted at load time for kernel-bound bytecode arriving
    /// without a certificate. Its key must be empowered by `chain`
    /// (delegations from the root). The certification *effort* is charged
    /// to simulated time — on-line certification happens on the kernel's
    /// clock, unlike the usual off-line flow.
    pub fn enable_online_certification(
        &self,
        certifier: Box<dyn paramecium_cert::Certifier>,
        chain: Vec<paramecium_cert::DelegationCert>,
    ) {
        *self.online.write() = Some(OnlineCertifier { certifier, chain });
    }

    /// Disables on-line certification.
    pub fn disable_online_certification(&self) {
        *self.online.write() = None;
    }

    /// Attempts on-line certification of `image`, charging the effort.
    fn try_online_certify(
        &self,
        component: &str,
        image: &[u8],
    ) -> Option<paramecium_cert::Certificate> {
        let guard = self.online.read();
        let online = guard.as_ref()?;
        let outcome = online
            .certifier
            .try_certify(component, image, &[Right::RunKernel]);
        self.machine.lock().charge(online.certifier.last_effort());
        match outcome {
            paramecium_cert::CertifyOutcome::Certified(cert) => Some(cert),
            paramecium_cert::CertifyOutcome::Declined { .. } => None,
        }
    }

    /// The context bundle proxies need.
    pub fn proxy_ctx(&self) -> ProxyCtx {
        ProxyCtx {
            machine: self.machine.clone(),
            events: self.events.clone(),
            mem: self.mem.clone(),
            stats: self.proxy_stats.clone(),
        }
    }

    /// Loads a component from the repository according to `options`,
    /// registers it in the name space, and reports what happened.
    ///
    /// Kernel placement of a *certified* component runs it native; of
    /// uncertified *bytecode*, falls back to load-time verification or SFI
    /// (if allowed); of uncertified *native* code, is refused — there is
    /// no way to contain it.
    pub fn load(&self, component: &str, options: &LoadOptions) -> CoreResult<LoadReport> {
        let kind = self.repository.get(component)?;
        let image = kind.image().to_vec();
        let t0 = self.now();

        // Each placement decides the domain, the regime and what is left to
        // instantiate; bytecode of every regime is then lowered in one place.
        let (domain, protection, body) = match options.placement {
            Placement::Kernel => match kind {
                ComponentKind::Native { factory, .. } => {
                    self.certsvc.validate_for(&image, Right::RunKernel)?;
                    let body = Body::Native(factory()?);
                    (KERNEL_DOMAIN, Protection::CertifiedNative, body)
                }
                ComponentKind::Bytecode { image: bc } => {
                    let program = Program::decode(&bc)
                        .map_err(|e| CoreError::Policy(format!("bad image: {e}")))?;
                    // A certificate that validates for RunKernel wins; a
                    // missing or insufficient one falls through to on-line
                    // certification, then software protection. Strict mode
                    // surfaces the certificate error instead.
                    let cert_check = if !options.force_sandbox && self.certsvc.is_certified(&bc) {
                        Some(self.certsvc.validate_for(&bc, Right::RunKernel))
                    } else {
                        None
                    };
                    let (program, protection) = if options.force_sandbox {
                        let (rewritten, stats) = paramecium_sfi::sandbox::sandbox_rewrite(&program);
                        self.machine
                            .lock()
                            .charge((stats.original_len + stats.rewritten_len) as Cycles * 2);
                        (rewritten, Protection::Sandboxed)
                    } else if matches!(cert_check, Some(Ok(_))) {
                        (program, Protection::CertifiedNative)
                    } else if !options.allow_software_protection && self.online.read().is_none() {
                        // Strict: report the precise certificate problem.
                        return Err(match cert_check {
                            Some(Err(e)) => e,
                            _ => CoreError::Cert(paramecium_cert::CertError::NotCertified),
                        });
                    } else if let Some(cert) = self.try_online_certify(component, &bc) {
                        // The kernel certified it on-line: install the
                        // minted certificate and run native. Subsequent
                        // loads of the same image hit the normal
                        // (cached) certificate path.
                        self.certsvc.install(
                            cert,
                            self.online.read().as_ref().expect("set").chain.clone(),
                        );
                        self.certsvc.validate_for(&bc, Right::RunKernel)?;
                        (program, Protection::CertifiedNative)
                    } else if options.allow_software_protection {
                        let cost_model = self.machine.lock().cost.clone();
                        let (program, protection, cost) = soften(program, &cost_model);
                        self.machine.lock().charge(cost);
                        (program, protection)
                    } else {
                        return Err(CoreError::Cert(paramecium_cert::CertError::NotCertified));
                    };
                    (KERNEL_DOMAIN, protection, Body::Bytecode(program))
                }
            },
            Placement::Domain(d) => {
                if self.domain(d).is_none() {
                    return Err(CoreError::NoSuchDomain(d.0));
                }
                if options.require_user_cert {
                    self.certsvc.validate_for(&image, Right::RunUser)?;
                }
                let body = match kind {
                    ComponentKind::Native { factory, .. } => Body::Native(factory()?),
                    ComponentKind::Bytecode { image: bc } => {
                        let program = Program::decode(&bc)
                            .map_err(|e| CoreError::Policy(format!("bad image: {e}")))?;
                        Body::Bytecode(program)
                    }
                };
                (d, Protection::Hardware, body)
            }
        };
        let obj = match body {
            Body::Native(obj) => obj,
            Body::Bytecode(program) => make_bytecode_object(
                component,
                program,
                protection,
                self.machine.clone(),
                self.step_budget,
            ),
        };

        self.register(domain, &options.register_as, obj)?;
        if let Some(d) = self.domain(domain) {
            d.note_loaded(&options.register_as);
        }
        Ok(LoadReport {
            path: options.register_as.clone(),
            domain,
            protection,
            load_cycles: self.now() - t0,
        })
    }
}

/// What a placement decision in [`Nucleus::load`] leaves to instantiate.
enum Body {
    /// A native component, already constructed by its factory.
    Native(ObjRef),
    /// A bytecode program, rewritten if it was sandboxed.
    Bytecode(Program),
}

/// Wraps the event service as an object (introspection interface).
fn events_object(events: &Arc<EventService>) -> ObjRef {
    let e1 = events.clone();
    let e2 = events.clone();
    ObjectBuilder::new("nucleus-events")
        .interface("events", |i| {
            i.method("stats", &[TypeTag::Int], TypeTag::List, move |_, args| {
                let v = args[0].as_int()? as u32;
                let s = e1.stats(v);
                Ok(Value::List(vec![
                    Value::Int(s.delivered as i64),
                    Value::Int(s.unhandled as i64),
                ]))
            })
            .method(
                "callbacks",
                &[TypeTag::Int],
                TypeTag::Int,
                move |_, args| {
                    let v = args[0].as_int()? as u32;
                    Ok(Value::Int(e2.callback_count(v) as i64))
                },
            )
        })
        .build()
}

/// Wraps the memory service as an object.
fn memory_object(mem: &Arc<MemService>) -> ObjRef {
    let m = mem.clone();
    ObjectBuilder::new("nucleus-memory")
        .interface("memory", |i| {
            i.method("stats", &[], TypeTag::List, move |_, _| {
                let s = m.stats();
                Ok(Value::List(vec![
                    Value::Int(s.pages_allocated as i64),
                    Value::Int(s.pages_shared as i64),
                    Value::Int(s.faults_handled as i64),
                    Value::Int(s.faults_unhandled as i64),
                ]))
            })
        })
        .build()
}

/// Wraps the directory service (root name space) as an object.
fn directory_object(ns: &Arc<NameSpace>) -> ObjRef {
    let n1 = ns.clone();
    let n2 = ns.clone();
    ObjectBuilder::new("nucleus-directory")
        .interface("directory", |i| {
            i.method("list", &[TypeTag::Str], TypeTag::List, move |_, args| {
                let prefix = args[0].as_str()?;
                Ok(Value::List(
                    n1.list(prefix).into_iter().map(Value::Str).collect(),
                ))
            })
            .method(
                "registered",
                &[TypeTag::Str],
                TypeTag::Bool,
                move |_, args| Ok(Value::Bool(n2.lookup(args[0].as_str()?).is_ok())),
            )
        })
        .build()
}

/// Wraps the certification service as an object.
fn cert_object(certsvc: &Arc<CertService>) -> ObjRef {
    let c1 = certsvc.clone();
    let c2 = certsvc.clone();
    ObjectBuilder::new("nucleus-certification")
        .interface("certification", |i| {
            i.method(
                "is_certified",
                &[TypeTag::Bytes],
                TypeTag::Bool,
                move |_, args| Ok(Value::Bool(c1.is_certified(args[0].as_bytes()?))),
            )
            .method("stats", &[], TypeTag::List, move |_, _| {
                let s = c2.stats();
                Ok(Value::List(vec![
                    Value::Int(s.full_validations as i64),
                    Value::Int(s.cache_hits as i64),
                    Value::Int(s.signature_checks as i64),
                ]))
            })
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramecium_cert::{authority::Authority, certificate::CertifyMethod};
    use paramecium_sfi::workloads;
    use rand::{rngs::StdRng, SeedableRng};

    fn root_authority() -> Authority {
        Authority::new("root", &mut StdRng::seed_from_u64(1), 512)
    }

    fn booted() -> (Arc<Nucleus>, Authority) {
        let root = root_authority();
        (Nucleus::boot(root.public().clone()).unwrap(), root)
    }

    #[test]
    fn boot_registers_nucleus_services() {
        let (n, _) = booted();
        let names = n.root_namespace().list("/nucleus");
        assert_eq!(
            names,
            vec![
                "/nucleus",
                "/nucleus/certification",
                "/nucleus/directory",
                "/nucleus/events",
                "/nucleus/memory"
            ]
        );
        // The kernel object is a composition exporting service interfaces.
        let k = n.bind(KERNEL_DOMAIN, "/nucleus").unwrap();
        let r = k.invoke("memory", "stats", &[]).unwrap();
        assert!(matches!(r, Value::List(_)));
    }

    #[test]
    fn same_domain_bind_is_direct() {
        let (n, _) = booted();
        let obj = n.bind(KERNEL_DOMAIN, "/nucleus/events").unwrap();
        assert_eq!(obj.class(), "nucleus-events");
    }

    #[test]
    fn cross_domain_bind_is_a_proxy() {
        let (n, _) = booted();
        let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
        let obj = n.bind(app.id, "/nucleus/events").unwrap();
        assert!(obj.class().starts_with("proxy<"));
        // And it works: a syscall-style invocation through the proxy.
        let r = obj.invoke("events", "callbacks", &[Value::Int(1)]).unwrap();
        assert_eq!(r, Value::Int(1)); // The page-fault handler from boot.
        assert_eq!(n.proxy_stats().crossings(), 1);
    }

    #[test]
    fn domains_inherit_and_override_namespace() {
        let (n, _) = booted();
        let svc = ObjectBuilder::new("real-svc").build();
        n.register(KERNEL_DOMAIN, "/svc/thing", svc).unwrap();
        let fake = ObjectBuilder::new("fake-svc").build();
        let app = n
            .create_domain(
                "app",
                KERNEL_DOMAIN,
                [(
                    "/svc/thing".to_owned(),
                    NsEntry {
                        obj: fake,
                        home: KERNEL_DOMAIN,
                    },
                )],
            )
            .unwrap();
        // The app sees its override; the kernel sees the original.
        let from_app = n.bind(app.id, "/svc/thing").unwrap();
        assert_eq!(from_app.class(), "proxy<fake-svc>");
        let from_kernel = n.bind(KERNEL_DOMAIN, "/svc/thing").unwrap();
        assert_eq!(from_kernel.class(), "real-svc");
    }

    #[test]
    fn load_certified_bytecode_into_kernel_native() {
        let (n, root) = booted();
        let image = n
            .repository
            .add_bytecode("csum", &workloads::checksum_loop(64, 1));
        let cert = root
            .certify(
                "csum",
                &image,
                vec![Right::RunKernel],
                CertifyMethod::Administrator,
            )
            .unwrap();
        n.certsvc.install(cert, vec![]);
        let report = n
            .load("csum", &LoadOptions::kernel("/kernel/csum"))
            .unwrap();
        assert_eq!(report.protection, Protection::CertifiedNative);
        assert_eq!(report.domain, KERNEL_DOMAIN);
        assert!(report.load_cycles >= crate::certsvc::DEFAULT_SIG_CHECK_COST);
        // Runs natively (no guard steps).
        let obj = n.bind(KERNEL_DOMAIN, "/kernel/csum").unwrap();
        let r = obj
            .invoke(
                "component",
                "run",
                &[
                    Value::Bytes(bytes::Bytes::from(vec![1u8; 64])),
                    Value::Int(0),
                ],
            )
            .unwrap();
        assert_eq!(r, Value::Int(64));
    }

    #[test]
    fn uncertified_bytecode_falls_back_to_software_protection() {
        let (n, _) = booted();
        n.repository
            .add_bytecode("raw", &workloads::checksum_loop(64, 1));
        let report = n.load("raw", &LoadOptions::kernel("/kernel/raw")).unwrap();
        assert_eq!(report.protection, Protection::Sandboxed);

        n.repository
            .add_bytecode("nice", &workloads::checksum_loop_verified(64, 1));
        let report = n
            .load("nice", &LoadOptions::kernel("/kernel/nice"))
            .unwrap();
        assert_eq!(report.protection, Protection::Verified);
    }

    #[test]
    fn online_certification_mints_and_caches_certificates() {
        let (n, root) = booted();
        // The kernel hosts a compiler certifier empowered by the root.
        let online_authority =
            paramecium_cert::Authority::new("kernel-online", &mut StdRng::seed_from_u64(33), 512);
        let chain = vec![root
            .delegate(
                "kernel-online",
                online_authority.public(),
                vec![Right::RunKernel],
            )
            .unwrap()];
        n.enable_online_certification(
            Box::new(paramecium_cert::CompilerCertifier::new(online_authority)),
            chain,
        );

        // Verifiable code arrives uncertified: the kernel certifies it
        // on-line and runs it native.
        n.repository
            .add_bytecode("hot", &workloads::checksum_loop_verified(64, 1));
        let report = n.load("hot", &LoadOptions::kernel("/kernel/hot")).unwrap();
        assert_eq!(report.protection, Protection::CertifiedNative);
        let first_cost = report.load_cycles;

        // A second load of the same image hits the certificate cache.
        let report = n.load("hot", &LoadOptions::kernel("/kernel/hot2")).unwrap();
        assert_eq!(report.protection, Protection::CertifiedNative);
        assert!(report.load_cycles < first_cost);

        // Unverifiable code is declined on-line and falls back to SFI.
        n.repository
            .add_bytecode("raw", &workloads::checksum_loop(64, 1));
        let report = n.load("raw", &LoadOptions::kernel("/kernel/raw")).unwrap();
        assert_eq!(report.protection, Protection::Sandboxed);

        n.disable_online_certification();
        n.repository
            .add_bytecode("later", &workloads::checksum_loop_verified(128, 1));
        let report = n
            .load("later", &LoadOptions::kernel("/kernel/later"))
            .unwrap();
        assert_eq!(report.protection, Protection::Verified);
    }

    #[test]
    fn strict_kernel_load_requires_certificate() {
        let (n, _) = booted();
        n.repository
            .add_bytecode("raw", &workloads::checksum_loop(64, 1));
        let err = n
            .load("raw", &LoadOptions::kernel("/kernel/raw").strict())
            .unwrap_err();
        assert!(matches!(err, CoreError::Cert(_)));
    }

    #[test]
    fn uncertified_native_never_enters_kernel() {
        let (n, _) = booted();
        n.repository.add_native(
            "driver",
            "1.0",
            Arc::new(|| Ok(ObjectBuilder::new("driver").build())),
        );
        // Even with software protection allowed: native code cannot be
        // sandboxed.
        let err = n
            .load("driver", &LoadOptions::kernel("/kernel/driver"))
            .unwrap_err();
        assert!(matches!(err, CoreError::Cert(_)));
    }

    #[test]
    fn user_placement_needs_no_certificate() {
        let (n, _) = booted();
        let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
        n.repository
            .add_bytecode("raw", &workloads::checksum_loop(64, 1));
        let report = n
            .load("raw", &LoadOptions::user(app.id, "/app/raw"))
            .unwrap();
        assert_eq!(report.protection, Protection::Hardware);
        assert_eq!(report.domain, app.id);
        assert_eq!(app.loaded_paths(), vec!["/app/raw"]);
    }

    #[test]
    fn interpose_replaces_shared_binding() {
        let (n, _) = booted();
        let svc = ObjectBuilder::new("svc")
            .interface("svc", |i| {
                i.method("who", &[], TypeTag::Str, |_, _| {
                    Ok(Value::Str("real".into()))
                })
            })
            .build();
        n.register(KERNEL_DOMAIN, "/shared/svc", svc).unwrap();
        let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();

        let target = n.bind(KERNEL_DOMAIN, "/shared/svc").unwrap();
        let agent = paramecium_obj::InterposerBuilder::new(target)
            .override_method("svc", "who", |_, _| Ok(Value::Str("agent".into())))
            .build();
        let old = n.interpose(KERNEL_DOMAIN, "/shared/svc", agent).unwrap();
        assert_eq!(old.class(), "svc");

        // Every domain now sees the agent.
        let from_app = n.bind(app.id, "/shared/svc").unwrap();
        assert_eq!(
            from_app.invoke("svc", "who", &[]).unwrap(),
            Value::Str("agent".into())
        );
    }

    #[test]
    fn destroy_domain_releases_resources() {
        let (n, _) = booted();
        let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
        n.mem
            .alloc(app.id, 4, paramecium_machine::mmu::Perms::RW)
            .unwrap();
        let frames_before = n.machine().lock().phys.allocated_frames();
        assert_eq!(frames_before, 4);
        n.destroy_domain(app.id).unwrap();
        assert_eq!(n.machine().lock().phys.allocated_frames(), 0);
        assert!(n.domain(app.id).is_none());
        assert!(n.destroy_domain(app.id).is_err());
        assert!(n.destroy_domain(KERNEL_DOMAIN).is_err());
    }

    #[test]
    fn poll_delivers_timer_interrupts() {
        let (n, _) = booted();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let h = hits.clone();
        n.events
            .register(
                paramecium_machine::trap::IRQ_VECTOR_BASE
                    + paramecium_machine::dev::timer::TIMER_IRQ,
                KERNEL_DOMAIN,
                Arc::new(move |_| {
                    h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }),
            )
            .unwrap();
        {
            let mut m = n.machine().lock();
            m.io_write("timer", paramecium_machine::dev::timer::regs::PERIOD, 100)
                .unwrap();
            m.io_write("timer", paramecium_machine::dev::timer::regs::CTRL, 1)
                .unwrap();
        }
        n.poll(10); // Arms.
        n.poll(250); // Fires at least twice.
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }
}
