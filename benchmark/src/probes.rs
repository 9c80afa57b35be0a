//! Probes: direct, timed calls on single layers. They split a ledger row
//! further than interposition can (codec vs state machine inside
//! `netstack.tcp`, one RSA operation inside a load) and do not depend on
//! the workload; every traced run repeats them.

use std::hint::black_box;
use std::time::Instant;

use rand::{rngs::StdRng, Rng};

use crate::adapt::{probe, ReqNet, Res, EXT_FRAME};

/// Samples per probe; the median is reported.
const SAMPLES: usize = 9;
/// Target length of one sample.
const SAMPLE_NS: u64 = 2_000_000;

/// Median ns per call of `f`.
fn time_ns(mut f: impl FnMut() -> u64) -> f64 {
    // Size a sample from one call, then from a first short sample.
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_nanos().max(1) as u64;
    let mut iters = (SAMPLE_NS / 8 / once).max(1);
    let mut samples = Vec::with_capacity(SAMPLES);
    for i in 0..=SAMPLES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64;
        if i == 0 {
            iters = ((SAMPLE_NS as f64 / (ns / iters as f64)) as u64).max(1);
        } else {
            samples.push(ns / iters as f64);
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[SAMPLES / 2]
}

/// `(metric name, value, unit)`.
pub type Probe = (&'static str, f64, &'static str);

/// Every probe metric.
pub fn run(rng: &mut StdRng) -> Res<Vec<Probe>> {
    let mut bytes = |n: usize| {
        let mut v = vec![0u8; n];
        rng.fill(v.as_mut_slice());
        v
    };
    let kib = bytes(1024);
    let payload = bytes(256);
    let frame = bytes(EXT_FRAME);
    let tcp_frame = ReqNet::tcp_frame(&payload);

    let ns = |name, t: f64| (name, t, "ns");
    let us = |name, t: f64| (name, t / 1e3, "us");
    let flat = time_ns(probe::dispatch(0));
    let deep = time_ns(probe::dispatch(4));
    let core = probe::Core::boot()?;
    Ok(vec![
        ns(
            "netstack.wire.checksum_ns_per_kib",
            time_ns(probe::checksum(kib.clone())),
        ),
        ns(
            "netstack.wire.tcp_build_ns",
            time_ns(probe::tcp_build(payload)),
        ),
        ns(
            "netstack.wire.tcp_parse_ns",
            time_ns(probe::tcp_parse(tcp_frame)),
        ),
        ns("crypto.sha256_ns_per_kib", time_ns(probe::sha256_of(kib))),
        us("crypto.rsa_verify_us", time_ns(probe::rsa_verify(rng)?)),
        us("cert.validate_us", time_ns(probe::cert_validate()?)),
        us("sfi.analyze_us", time_ns(probe::sfi_analyze())),
        ns(
            "sfi.run_elided_ns",
            time_ns(probe::sfi_run_elided(frame.clone())?),
        ),
        ns(
            "sfi.run_sandboxed_ns",
            time_ns(probe::sfi_run_sandboxed(frame)),
        ),
        ns("obj.dispatch_ns", flat),
        ns("obj.interpose_hop_ns", (deep - flat) / 4.0),
        ns("core.bind_ns", time_ns(|| core.bind())),
        ns("core.proxy_invoke_ns", time_ns(|| core.proxy_invoke())),
        us("core.load_certified_us", time_ns(|| core.load(true))),
        us("core.load_softened_us", time_ns(|| core.load(false))),
    ])
}
