//! Workspace-wiring smoke test: one path through `core` + `cert` + `sfi` +
//! `obj` at once. Boots a world, certifies a single `sfi::workloads`
//! component, loads it into both the kernel domain and a user domain, and
//! invokes it locally and across the domain boundary (through a proxy).
//! Also pins the wiring of the workspace itself: tier-1 runs every member.

use paramecium::prelude::*;

#[test]
fn certified_component_loads_into_kernel_and_user_domains() {
    let world = World::boot();
    let n = &world.nucleus;

    // Repository + certification policy (cert crate over an sfi image).
    let program = paramecium::sfi::workloads::checksum_loop_verified(64, 1);
    n.repository.add_bytecode("csum", &program);
    world
        .certify("csum", &[Right::RunKernel, Right::RunUser])
        .unwrap();

    // Kernel placement: the certificate wins, so the component runs as
    // certified native code with no run-time checks.
    let kernel_report = n
        .load("csum", &LoadOptions::kernel("/kernel/csum"))
        .unwrap();
    assert_eq!(kernel_report.protection, Protection::CertifiedNative);
    assert_eq!(kernel_report.domain, KERNEL_DOMAIN);

    // The same image also goes into a user protection domain, where the
    // MMU (not certification) is the protection mechanism.
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let mut user_opts = LoadOptions::user(app.id, "/app/csum");
    user_opts.require_user_cert = true;
    let user_report = n.load("csum", &user_opts).unwrap();
    assert_eq!(user_report.protection, Protection::Hardware);
    assert_eq!(user_report.domain, app.id);

    // Invoke the kernel instance from its home domain (plain dispatch) and
    // from the user domain (cross-domain proxy): same answer both ways.
    let payload = Value::Bytes(bytes::Bytes::from(vec![1u8; 64]));
    let local = n.bind(KERNEL_DOMAIN, "/kernel/csum").unwrap();
    let proxied = n.bind(app.id, "/kernel/csum").unwrap();
    let direct = local
        .invoke("component", "run", &[payload.clone(), Value::Int(0)])
        .unwrap();
    let cross = proxied
        .invoke("component", "run", &[payload.clone(), Value::Int(0)])
        .unwrap();
    assert_eq!(direct, Value::Int(64));
    assert_eq!(direct, cross);

    // The user-domain instance computes the same checksum under hardware
    // protection, and knows which regime it is running under.
    let user_obj = n.bind(app.id, "/app/csum").unwrap();
    let user_sum = user_obj
        .invoke("component", "run", &[payload, Value::Int(0)])
        .unwrap();
    assert_eq!(user_sum, Value::Int(64));
    let regime = user_obj.invoke("component", "protection", &[]).unwrap();
    assert_eq!(regime, Value::Str("Hardware".into()));
}

/// Tier-1 (`cargo test -q`) runs `default-members`: they must stay every
/// workspace member, or tier-1 silently stops running most of the tests.
#[test]
fn tier1_is_the_whole_workspace() {
    let out = std::process::Command::new(env!("CARGO"))
        .args(["metadata", "--offline", "--no-deps", "--format-version=1"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo metadata runs");
    let json = String::from_utf8(out.stdout).expect("cargo metadata prints UTF-8");
    let list = |key: &str| {
        let at = json.find(&format!("\"{key}\":[")).expect(key) + key.len() + 4;
        let end = at + json[at..].find(']').expect("array closes");
        let mut ids: Vec<&str> = json[at..end].split(',').collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(list("workspace_default_members"), list("workspace_members"));
}
