//! A ready-made world for examples, tests and benchmarks.
//!
//! Booting Paramecium for an experiment always needs the same cast: a
//! machine, a nucleus trusting some root key, and a certification policy
//! with the standard subordinates (compiler → prover → administrator).
//! [`World`] assembles them with deterministic keys.
//!
//! The four 512-bit RSA authorities are generated **once per process**
//! (they are deterministic, so every boot would produce the same keys
//! anyway) and shared by all [`World::boot`] calls; key generation used to
//! dominate every test binary's wall clock.

use std::sync::{Arc, OnceLock};

use rand::{rngs::StdRng, SeedableRng};

use crate::cert::{
    AdminCertifier, Authority, CertificationPolicy, CompilerCertifier, ProverCertifier, Right,
};
use crate::core::{CoreError, CoreResult, Nucleus};
use crate::machine::{CostModel, Machine};

/// RSA modulus size used by harness keys. 512 bits keeps debug-mode test
/// runs fast; the crypto benches measure 1024 separately.
pub const HARNESS_KEY_BITS: u32 = 512;

/// A booted Paramecium world.
pub struct World {
    /// The nucleus (owns the machine).
    pub nucleus: Arc<Nucleus>,
    /// The root certification authority (kernel trusts its public key).
    pub root: Authority,
    /// The standard ordered subordinate policy.
    pub policy: CertificationPolicy,
}

/// The standard authority cast: root plus the three subordinates.
struct HarnessAuthorities {
    root: Authority,
    compiler: Authority,
    prover: Authority,
    admin: Authority,
}

impl HarnessAuthorities {
    /// Generates the four authorities from a seed (deterministic: the same
    /// seed always yields the same keys, matching the pre-sharing
    /// behaviour of `World::boot`).
    fn generate(seed: u64) -> HarnessAuthorities {
        let mut rng = StdRng::seed_from_u64(seed);
        HarnessAuthorities {
            root: Authority::new("root-ca", &mut rng, HARNESS_KEY_BITS),
            compiler: Authority::new("m3-compiler", &mut rng, HARNESS_KEY_BITS),
            prover: Authority::new("object-prover", &mut rng, HARNESS_KEY_BITS),
            admin: Authority::new("sysadmin", &mut rng, HARNESS_KEY_BITS),
        }
    }

    /// The process-wide shared set every plain `boot` uses.
    fn shared() -> &'static HarnessAuthorities {
        static SHARED: OnceLock<HarnessAuthorities> = OnceLock::new();
        SHARED.get_or_init(|| HarnessAuthorities::generate(HARNESS_KEY_SEED))
    }
}

/// Seed of the shared harness authority keys.
const HARNESS_KEY_SEED: u64 = 0x50AE_C1A0;

impl World {
    /// Boots with the default cost model.
    pub fn boot() -> World {
        Self::boot_with_cost(CostModel::default())
    }

    /// Boots with an explicit cost model (ablations).
    pub fn boot_with_cost(cost: CostModel) -> World {
        Self::assemble(cost, HarnessAuthorities::shared())
    }

    fn assemble(cost: CostModel, auth: &HarnessAuthorities) -> World {
        // Certifying prices the verifier's work as loading does.
        let compiler = CompilerCertifier::new(auth.compiler.clone(), cost.analysis_eval);
        let machine = Arc::new(parking_lot::Mutex::new(Machine::with_config(
            cost,
            paramecium_machine::machine::DEFAULT_FRAMES,
            paramecium_machine::machine::DEFAULT_TLB_ENTRIES,
        )));
        let root = auth.root.clone();
        let nucleus =
            Nucleus::boot_on(machine, root.public().clone()).expect("nucleus boot cannot fail");
        let policy = CertificationPolicy::standard(
            &root,
            compiler,
            ProverCertifier::new(auth.prover.clone(), 50_000),
            AdminCertifier::new(auth.admin.clone(), &[]),
            vec![
                Right::RunUser,
                Right::RunKernel,
                Right::DeviceAccess,
                Right::InterposeShared,
            ],
        )
        .expect("standard policy construction cannot fail");
        World {
            nucleus,
            root,
            policy,
        }
    }

    /// Runs the certification policy (with escape hatch) on a repository
    /// component and installs the resulting certificate in the nucleus.
    /// Returns the index of the subordinate that signed.
    pub fn certify(&self, component: &str, rights: &[Right]) -> CoreResult<usize> {
        let image = self.nucleus.repository.image_of(component)?;
        let outcome = self
            .policy
            .certify(component, &image, rights)
            .map_err(CoreError::Cert)?;
        let signer = outcome.signer_index;
        self.nucleus
            .certsvc
            .install(outcome.certificate, outcome.chain);
        Ok(signer)
    }

    /// Root-signs a component directly (bypassing the subordinates) — the
    /// "the authority itself hand-checked this" path used to certify the
    /// trusted native toolbox.
    pub fn certify_by_root(&self, component: &str, rights: &[Right]) -> CoreResult<()> {
        let image = self.nucleus.repository.image_of(component)?;
        let cert = self
            .root
            .certify(
                component,
                &image,
                rights.to_vec(),
                crate::cert::CertifyMethod::Administrator,
            )
            .map_err(CoreError::Cert)?;
        self.nucleus.certsvc.install(cert, vec![]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::LoadOptions;
    use crate::sfi::workloads;

    /// The world pool ships entire booted worlds to worker OS threads
    /// every round. Pin the `Send` bounds here (compile-time) and prove
    /// the dynamic story too: a world booted on one thread keeps working
    /// on another.
    #[test]
    fn worlds_move_between_os_threads() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<World>();
        assert_send_sync::<Nucleus>();
        assert_send_sync::<CertificationPolicy>();

        let world = World::boot();
        let cycles = std::thread::spawn(move || {
            world.nucleus.poll(25);
            world.nucleus.machine().lock().now()
        })
        .join()
        .expect("world works after crossing a thread boundary");
        assert!(cycles >= 25);
    }

    #[test]
    fn world_boots_and_certifies() {
        let world = World::boot();
        world
            .nucleus
            .repository
            .add_bytecode("good", &workloads::checksum_loop_verified(64, 1));
        // The compiler (index 0) signs verifiable code.
        assert_eq!(world.certify("good", &[Right::RunKernel]).unwrap(), 0);
        let report = world
            .nucleus
            .load("good", &LoadOptions::kernel("/kernel/good"))
            .unwrap();
        assert_eq!(report.protection, crate::core::Protection::CertifiedNative);
    }

    #[test]
    fn root_certification_covers_native_components() {
        let world = World::boot();
        world.nucleus.repository.add_native(
            "svc",
            "1.0",
            Arc::new(|| Ok(crate::obj::ObjectBuilder::new("svc").build())),
        );
        world.certify_by_root("svc", &[Right::RunKernel]).unwrap();
        let report = world
            .nucleus
            .load("svc", &LoadOptions::kernel("/kernel/svc"))
            .unwrap();
        assert_eq!(report.protection, crate::core::Protection::CertifiedNative);
    }

    #[test]
    fn shared_keys_are_reused_across_boots_and_fresh_keys_differ() {
        let a = World::boot();
        let b = World::boot();
        // Same shared authority set: byte-identical public keys.
        assert_eq!(a.root.public(), b.root.public());
        // Keys from another seed are a distinct key universe…
        let fresh = World::assemble(CostModel::default(), &HarnessAuthorities::generate(42));
        assert_ne!(fresh.root.public(), a.root.public());
        // …whose certificates the shared-key nucleus must reject.
        let bytecode = workloads::checksum_loop_verified(64, 1);
        fresh.nucleus.repository.add_bytecode("good", &bytecode);
        a.nucleus.repository.add_bytecode("good", &bytecode);
        fresh.certify("good", &[Right::RunKernel]).unwrap();
        let image = fresh.nucleus.repository.image_of("good").unwrap();
        let outcome = fresh
            .policy
            .certify("good", &image, &[Right::RunKernel])
            .unwrap();
        a.nucleus
            .certsvc
            .install(outcome.certificate, outcome.chain);
        // The foreign-rooted certificate must not unlock the zero-check
        // native path; the loader demotes the component to a sandboxed run.
        let report = a
            .nucleus
            .load("good", &LoadOptions::kernel("/kernel/good"))
            .unwrap();
        assert_ne!(report.protection, crate::core::Protection::CertifiedNative);
    }

    #[test]
    fn uncertifiable_component_exhausts_policy() {
        let world = World::boot();
        world
            .nucleus
            .repository
            .add_bytecode("wild", &workloads::wild_writer());
        assert!(world.certify("wild", &[Right::RunKernel]).is_err());
    }
}
