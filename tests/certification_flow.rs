//! Integration: the full certification story, including the attacks the
//! architecture is designed to stop.

use paramecium::cert::{
    validate_chain, AdminCertifier, Authority, CertificationPolicy, CertifyMethod,
    CompilerCertifier, ProverCertifier,
};
use paramecium::prelude::*;
use paramecium::sfi::workloads;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn compiler_to_kernel_pipeline() {
    // SPIN-style: the trusted compiler's output is automatically certified
    // and runs native in the kernel.
    let world = World::boot();
    let n = &world.nucleus;
    n.repository
        .add_bytecode("fast-path", &workloads::checksum_words_verified(1024, 2));
    let signer = world.certify("fast-path", &[Right::RunKernel]).unwrap();
    assert_eq!(signer, 0, "the compiler signs verifiable code first");
    let report = n
        .load(
            "fast-path",
            &LoadOptions::kernel("/kernel/fast-path").strict(),
        )
        .unwrap();
    assert_eq!(report.protection, Protection::CertifiedNative);
    let obj = n.bind(KERNEL_DOMAIN, "/kernel/fast-path").unwrap();
    let r = obj
        .invoke(
            "component",
            "run",
            &[
                Value::Bytes(bytes::Bytes::from(vec![1u8; 1024])),
                Value::Int(0),
            ],
        )
        .unwrap();
    assert!(matches!(r, Value::Int(_)));
}

#[test]
fn escape_hatch_orders_subordinates_by_preference() {
    let mut rng = StdRng::seed_from_u64(11);
    let root = Authority::new("root", &mut rng, 512);
    let honest_raw = workloads::table_fill(64, 2).encode();
    let policy = CertificationPolicy::standard(
        &root,
        CompilerCertifier::new(
            Authority::new("compiler", &mut rng, 512),
            CostModel::default().analysis_eval,
        ),
        ProverCertifier::new(Authority::new("prover", &mut rng, 512), 1_000),
        AdminCertifier::new(Authority::new("admin", &mut rng, 512), &[&honest_raw]),
        vec![Right::RunKernel],
    )
    .unwrap();

    // Verifiable: first subordinate.
    let out = policy
        .certify("v", &workloads::alu_loop(4).encode(), &[Right::RunKernel])
        .unwrap();
    assert_eq!(out.signer_index, 0);

    // Unverifiable but hand-checked: falls through to the admin, and the
    // produced chain still validates against the root.
    let out = policy
        .certify("h", &honest_raw, &[Right::RunKernel])
        .unwrap();
    assert_eq!(out.signer_index, 2);
    validate_chain(root.public(), &out.chain, &out.certificate).unwrap();
    assert_eq!(out.attempts.len(), 3);
}

#[test]
fn packet_snooper_cannot_obtain_kernel_rights() {
    // The paper's threat: "software verification of the component cannot
    // easily reveal packet snooping" — but our snooper isn't even memory
    // safe, and nobody signs it.
    let world = World::boot();
    world
        .nucleus
        .repository
        .add_bytecode("snooper", &workloads::wild_writer());
    assert!(world.certify("snooper", &[Right::RunKernel]).is_err());
    // Strict kernel load refused; sandboxed load contains it.
    assert!(world
        .nucleus
        .load("snooper", &LoadOptions::kernel("/kernel/snooper").strict())
        .is_err());
    let report = world
        .nucleus
        .load("snooper", &LoadOptions::kernel("/kernel/snooper"))
        .unwrap();
    assert_eq!(report.protection, Protection::Sandboxed);
}

#[test]
fn testing_certifier_can_be_fooled_where_verification_cannot() {
    // An input-dependent bomb: behaves for small r1, scribbles wild when
    // r1 has its top bit set. Random testing with a fixed seed may miss
    // it; the verifier never does. This is why certification *method*
    // matters and is recorded in the certificate.
    use paramecium::sfi::{asm::Asm, Reg};
    let r = Reg::new;
    let mut a = Asm::new(16);
    a.li(r(2), 1);
    a.li(r(3), 63);
    a.raw(paramecium::sfi::Insn::Shr {
        rd: r(4),
        rs1: r(1),
        rs2: r(3),
    });
    a.bne(r(4), r(2), "ok"); // Top bit clear → behave.
    a.li(r(5), 0x7000_0000);
    a.stb(r(2), r(5), 0); // Bomb.
    a.label("ok");
    a.li(r(0), 0);
    a.halt();
    let bomb = a.finish().unwrap();

    // The verifier rejects it outright.
    assert!(paramecium::sfi::verifier::verify(&bomb).is_err());

    // A test team whose random inputs happen to avoid the top bit signs
    // it — the paper's point that different certifiers embody different
    // levels of assurance.
    let mut rng = StdRng::seed_from_u64(5);
    let qa = paramecium::cert::TestTeamCertifier::new(
        Authority::new("qa", &mut rng, 512),
        0, // Zero test runs: the laziest possible team.
        1 << 16,
        1,
    );
    match qa.try_certify("bomb", &bomb.encode(), &[Right::RunKernel]) {
        CertifyOutcome::Certified(cert) => {
            assert_eq!(cert.method, CertifyMethod::TestTeam);
        }
        CertifyOutcome::Declined { reason } => panic!("lazy QA declined: {reason}"),
    }
}

#[test]
fn stolen_certificate_does_not_transfer_to_other_code() {
    // Certify component A, then try to load component B claiming A's
    // certificate: the digest lookup fails.
    let world = World::boot();
    let n = &world.nucleus;
    n.repository.add_bytecode("a", &workloads::alu_loop(4));
    world.certify("a", &[Right::RunKernel]).unwrap();
    n.repository.add_bytecode("b", &workloads::alu_loop(5)); // Different code.
    let err = n
        .load("b", &LoadOptions::kernel("/kernel/b").strict())
        .unwrap_err();
    assert!(matches!(err, paramecium::core::CoreError::Cert(_)));
}

#[test]
fn rights_are_checked_per_placement() {
    // Certified for user domains only: kernel load must fail.
    let world = World::boot();
    let n = &world.nucleus;
    let image = n
        .repository
        .add_bytecode("user-only", &workloads::alu_loop(4));
    let cert = world
        .root
        .certify(
            "user-only",
            &image,
            vec![Right::RunUser],
            CertifyMethod::Administrator,
        )
        .unwrap();
    n.certsvc.install(cert, vec![]);
    assert!(n
        .load("user-only", &LoadOptions::kernel("/kernel/u").strict())
        .is_err());
    // But a user-domain load with certificate requirement passes.
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let mut opts = LoadOptions::user(app.id, "/app/u");
    opts.require_user_cert = true;
    let report = n.load("user-only", &opts).unwrap();
    assert_eq!(report.protection, Protection::Hardware);
}

#[test]
fn delegation_cannot_amplify_rights_end_to_end() {
    let mut rng = StdRng::seed_from_u64(21);
    let world = World::boot();
    let n = &world.nucleus;
    // Root delegates RunUser only; the subordinate signs for RunKernel.
    let sub = Authority::new("sneaky", &mut rng, 512);
    let chain = vec![world
        .root
        .delegate("sneaky", sub.public(), vec![Right::RunUser])
        .unwrap()];
    let image = n.repository.add_bytecode("esc", &workloads::alu_loop(4));
    let cert = sub
        .certify(
            "esc",
            &image,
            vec![Right::RunKernel],
            CertifyMethod::Administrator,
        )
        .unwrap();
    n.certsvc.install(cert, chain);
    let err = n
        .load("esc", &LoadOptions::kernel("/kernel/esc").strict())
        .unwrap_err();
    assert!(matches!(err, paramecium::core::CoreError::Cert(_)));
}

#[test]
fn certification_method_is_auditable_on_the_loaded_component() {
    let world = World::boot();
    let n = &world.nucleus;
    n.repository
        .add_bytecode("audited", &workloads::checksum_loop_verified(64, 1));
    world.certify("audited", &[Right::RunKernel]).unwrap();
    n.load("audited", &LoadOptions::kernel("/kernel/audited"))
        .unwrap();
    let image = n.repository.image_of("audited").unwrap();
    let cert = n.certsvc.validate_for(&image, Right::RunKernel).unwrap();
    assert_eq!(cert.method, CertifyMethod::TypeSafeCompiler);
    assert_eq!(cert.component, "audited");
}
