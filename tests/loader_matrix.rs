//! Integration: the complete loader decision matrix — component kind ×
//! placement × certification state × options — asserting the protection
//! regime (or refusal) for every combination. Each row also pins its
//! `load_cycles`: the loader's charges must not move unannounced.

use paramecium::prelude::*;
use paramecium::sfi::workloads;

/// What certification state the component is in before the load.
#[derive(Clone, Copy, Debug)]
enum CertState {
    None,
    UserOnly,
    Kernel,
}

fn prepare(world: &World, name: &str, verifiable: bool, cert: CertState) {
    let n = &world.nucleus;
    let program = if verifiable {
        workloads::checksum_loop_verified(64, 1)
    } else {
        workloads::checksum_loop(64, 1)
    };
    n.repository.add_bytecode(name, &program);
    match cert {
        CertState::None => {}
        CertState::UserOnly => world.certify_by_root(name, &[Right::RunUser]).unwrap(),
        CertState::Kernel => world
            .certify_by_root(name, &[Right::RunKernel, Right::RunUser])
            .unwrap(),
    }
}

#[test]
fn kernel_placement_matrix() {
    use Protection::{CertifiedNative, Sandboxed, Verified};
    // (verifiable, cert, strict, expected regime and `load_cycles`). The
    // cycles are pinned: a load charges for validation, analysis and
    // rewriting — once each — and never for lowering. A softened load's
    // analysis charge is `evaluations × analysis_eval`: 118 evaluations for
    // `checksum_loop_verified(64, 1)` and 94 for `checksum_loop(64, 1)`
    // (737 and 604 while the widening passed known bits through, which is
    // the 2 476 and 2 040 cycles the three softened rows fell by in PR 23).
    type Loaded = Option<(Protection, u64)>;
    let cases: &[(bool, CertState, bool, Loaded)] = &[
        // Certified for kernel: always native, strict or not.
        (
            true,
            CertState::Kernel,
            true,
            Some((CertifiedNative, 100_363)),
        ),
        (
            false,
            CertState::Kernel,
            true,
            Some((CertifiedNative, 100_348)),
        ),
        (
            false,
            CertState::Kernel,
            false,
            Some((CertifiedNative, 100_348)),
        ),
        // Uncertified, permissive: software protection by verifiability.
        (true, CertState::None, false, Some((Verified, 472))),
        (false, CertState::None, false, Some((Sandboxed, 434))),
        // Uncertified, strict: refused.
        (true, CertState::None, true, None),
        (false, CertState::None, true, None),
        // User-only certificate never helps kernel placement.
        (true, CertState::UserOnly, true, None),
        // …but permissive mode still softens it in.
        (true, CertState::UserOnly, false, Some((Verified, 100_835))),
    ];
    for (i, (verifiable, cert, strict, expected)) in cases.iter().enumerate() {
        let world = World::boot();
        let name = format!("c{i}");
        prepare(&world, &name, *verifiable, *cert);
        let mut opts = LoadOptions::kernel(format!("/kernel/{name}"));
        if *strict {
            opts = opts.strict();
        }
        let got = world.nucleus.load(&name, &opts);
        assert_eq!(
            got.as_ref().map(|r| (r.protection, r.load_cycles)).ok(),
            *expected,
            "case {i}: {verifiable} {cert:?} strict={strict} -> {got:?}"
        );
    }
}

#[test]
fn forced_sandbox_overrides_everything() {
    // Even a fully certified, verifiable component runs sandboxed when
    // the user forces the Exokernel baseline.
    let world = World::boot();
    prepare(&world, "c", true, CertState::Kernel);
    let report = world
        .nucleus
        .load("c", &LoadOptions::kernel("/kernel/c").sandboxed())
        .unwrap();
    assert_eq!(report.protection, Protection::Sandboxed);
    assert_eq!(report.load_cycles, 66);
}

#[test]
fn user_placement_matrix() {
    // (cert, require_user_cert, expected `load_cycles` or refusal).
    for (i, (cert, require_cert, expected)) in [
        (CertState::None, false, Some(0)),
        (CertState::None, true, None),
        (CertState::UserOnly, true, Some(100_348)),
        (CertState::Kernel, true, Some(100_348)),
    ]
    .iter()
    .enumerate()
    {
        let world = World::boot();
        let name = format!("u{i}");
        prepare(&world, &name, false, *cert);
        let app = world
            .nucleus
            .create_domain("app", KERNEL_DOMAIN, [])
            .unwrap();
        let mut opts = LoadOptions::user(app.id, format!("/app/{name}"));
        opts.require_user_cert = *require_cert;
        let got = world.nucleus.load(&name, &opts);
        assert_eq!(
            got.as_ref().map(|r| (r.protection, r.load_cycles)).ok(),
            expected.map(|cycles| (Protection::Hardware, cycles)),
            "case {i}: {cert:?} require_user_cert={require_cert} -> {got:?}"
        );
    }
}

#[test]
fn load_into_nonexistent_domain_fails_cleanly() {
    let world = World::boot();
    prepare(&world, "c", true, CertState::Kernel);
    let err = world
        .nucleus
        .load("c", &LoadOptions::user(DomainId(99), "/x/c"))
        .unwrap_err();
    assert!(matches!(err, paramecium::core::CoreError::NoSuchDomain(99)));
}

#[test]
fn duplicate_registration_path_fails_and_leaves_first_intact() {
    let world = World::boot();
    prepare(&world, "a", true, CertState::Kernel);
    prepare(&world, "b", true, CertState::Kernel);
    world
        .nucleus
        .load("a", &LoadOptions::kernel("/kernel/slot"))
        .unwrap();
    assert!(world
        .nucleus
        .load("b", &LoadOptions::kernel("/kernel/slot"))
        .is_err());
    let obj = world.nucleus.bind(KERNEL_DOMAIN, "/kernel/slot").unwrap();
    assert_eq!(obj.class(), "a");
}

#[test]
fn missing_component_is_a_clean_error() {
    let world = World::boot();
    assert!(matches!(
        world
            .nucleus
            .load("ghost", &LoadOptions::kernel("/kernel/g")),
        Err(paramecium::core::CoreError::NoSuchComponent(_))
    ));
}
