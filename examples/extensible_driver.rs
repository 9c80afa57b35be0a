//! The paper's headline scenario: an application inserts a protocol-
//! processing component into the shared network driver path — legal only
//! because certification can vouch for it.
//!
//! Shows all four outcomes:
//! 1. a *verifiable* filter → the type-safe-compiler subordinate signs it,
//!    it runs native in the kernel domain;
//! 2. an *unverifiable but honest* filter → compiler declines, prover
//!    gives up, the administrator (who hand-checked it) signs — the
//!    escape hatch;
//! 3. a *malicious snooping* filter → everyone declines; without a
//!    certificate it can still run, but only SFI-sandboxed (Exokernel
//!    mode) or in a user domain behind hardware protection;
//! 4. a *tampered* certified image → the load-time digest check refuses it.
//!
//! ```text
//! cargo run --example extensible_driver
//! ```

use paramecium::cert::{
    AdminCertifier, Authority, CertificationPolicy, CompilerCertifier, ProverCertifier,
};
use paramecium::netstack::filter::{checksumming_filter_program, udp_port_filter_program};
use paramecium::prelude::*;
use paramecium::sfi::workloads;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let world = World::boot();
    let nucleus = &world.nucleus;
    let mut rng = StdRng::seed_from_u64(42);

    // --- 1. The verifiable filter -------------------------------------
    let verifiable = udp_port_filter_program(53);
    nucleus.repository.add_bytecode("dns-filter", &verifiable);
    let signer = world.certify("dns-filter", &[Right::RunKernel]).unwrap();
    let report = nucleus
        .load("dns-filter", &LoadOptions::kernel("/kernel/dns-filter"))
        .unwrap();
    println!("1. verifiable filter:");
    println!("   signed by subordinate #{signer} (the compiler)");
    println!("   placed in kernel as {:?}\n", report.protection);

    // --- 2. The honest-but-unverifiable filter ------------------------
    // Raw pointer arithmetic: the compiler can't prove it, the prover's
    // budget is too small — the escape hatch walks down to the admin.
    let honest = checksumming_filter_program(53);
    let image = honest.encode();
    // Build a policy whose admin has hand-checked exactly this image.
    let admin_authority = Authority::new("sysadmin", &mut rng, 512);
    let policy = CertificationPolicy::standard(
        &world.root,
        CompilerCertifier::new(
            Authority::new("m3c", &mut rng, 512),
            CostModel::default().analysis_eval,
        ),
        ProverCertifier::new(Authority::new("prover", &mut rng, 512), 500),
        AdminCertifier::new(admin_authority, &[&image]),
        vec![Right::RunUser, Right::RunKernel],
    )
    .unwrap();
    nucleus.repository.add_bytecode("csum-filter", &honest);
    let outcome = policy
        .certify("csum-filter", &image, &[Right::RunKernel])
        .unwrap();
    println!("2. honest-but-unverifiable filter (escape hatch):");
    for line in &outcome.attempts {
        println!("   - {line}");
    }
    nucleus.certsvc.install(outcome.certificate, outcome.chain);
    let report = nucleus
        .load("csum-filter", &LoadOptions::kernel("/kernel/csum-filter"))
        .unwrap();
    println!("   placed in kernel as {:?}\n", report.protection);

    // --- 3. The malicious snooping filter -----------------------------
    let snooper = workloads::wild_writer();
    nucleus.repository.add_bytecode("snooper", &snooper);
    match world.certify("snooper", &[Right::RunKernel]) {
        Err(e) => println!("3. malicious filter: certification refused\n   ({e})"),
        Ok(_) => unreachable!("nobody may sign the snooper"),
    }
    // Strict mode: cannot enter the kernel at all.
    let strict = nucleus.load("snooper", &LoadOptions::kernel("/kernel/snooper").strict());
    println!(
        "   strict kernel load: {:?}",
        strict.err().map(|e| e.to_string())
    );
    // Permissive mode: it gets in, but wearing an SFI straightjacket.
    let report = nucleus
        .load("snooper", &LoadOptions::kernel("/kernel/snooper"))
        .unwrap();
    println!(
        "   permissive kernel load: {:?} (run-time checks on every access)",
        report.protection
    );
    // Or a user domain: hardware protection, no checks needed.
    let app = nucleus
        .create_domain("untrusted-app", KERNEL_DOMAIN, [])
        .unwrap();
    let report = nucleus
        .load("snooper", &LoadOptions::user(app.id, "/app/snooper"))
        .unwrap();
    println!("   user-domain load: {:?}\n", report.protection);

    // The sandboxed snooper is *contained*: it runs, its wild write lands
    // inside its own segment, the kernel survives.
    let sandboxed = nucleus.bind(KERNEL_DOMAIN, "/kernel/snooper").unwrap();
    let r = sandboxed.invoke(
        "component",
        "run",
        &[Value::Bytes(bytes::Bytes::new()), Value::Int(0)],
    );
    println!("   sandboxed snooper ran: {r:?} (contained, kernel intact)\n");

    // --- 4. The tampered image -----------------------------------------
    // Certify one image, then swap the repository contents: the digest in
    // the certificate no longer matches what would be loaded.
    let genuine = udp_port_filter_program(99);
    nucleus.repository.add_bytecode("patched", &genuine);
    world.certify("patched", &[Right::RunKernel]).unwrap();
    let mut evil = udp_port_filter_program(99);
    evil.data_len += 4096; // "Just a small patch after review…"
    nucleus.repository.add_bytecode("patched", &evil);
    let strict = nucleus.load("patched", &LoadOptions::kernel("/kernel/patched").strict());
    println!("4. tampered-after-certification image:");
    println!("   strict load: {:?}", strict.err().map(|e| e.to_string()));
    println!("   (\"certificates include a message digest of the component so that it is");
    println!("    impossible to modify the component after it has been certified\")");
}
