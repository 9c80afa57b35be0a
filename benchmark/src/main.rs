//! The request-path ledger: the repo's benchmark. See `README.md` for
//! what is measured and why; `BENCHMARK.json` at the repo root for the
//! contract this binary prints to.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no interposer in the
//! path; `--trace 1` runs the same workload untraced and then traced, and
//! reports the per-layer metrics. The last line of standard output is the
//! result object; everything else goes to standard error and to
//! `<out>/<workload>.json` / `<out>/trace_<workload>.json`.

mod adapt;
mod json;
mod kernelext;
mod measure;
mod probes;
mod reqpath;
mod storewl;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};

use adapt::Res;
use json::Json;
use measure::{summarize, Calibrator, Summary, CALIBRATION_REF_NS};
use trace::{Layer, Ledger, LAYERS};
use workload::{Counts, Final, Sizing, Workload};

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;

/// Slices whose counts are compared between runs: a fixed number of ops
/// from the first measured one, so counts repeat exactly however long the
/// run goes on for.
const COUNT_SLICES: usize = 8;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Spec {
    name: &'static str,
    sizing: Sizing,
    build: fn(u64, bool) -> Res<Box<dyn Workload>>,
}

fn req(p: reqpath::Params, seed: u64, traced: bool) -> Res<Box<dyn Workload>> {
    Ok(Box::new(reqpath::ReqPath::build(p, seed, traced)?))
}

fn store(p: storewl::Params, seed: u64, traced: bool) -> Res<Box<dyn Workload>> {
    Ok(Box::new(storewl::StoreWl::build(p, seed, traced)?))
}

/// The six workloads. Slice sizes are chosen so a slice lasts about 50 ms
/// on the host the benchmark was defined on: short enough that a 10 s run
/// has some 200 of them and the host leaves a tenth undisturbed, long
/// enough to span many periods of the program (a `req_many` rotation is
/// 1024 ops, a `store_churn` flush comes every 64).
const SPECS: [Spec; 6] = [
    Spec {
        name: "req_few",
        sizing: Sizing {
            slice_ops: 4800,
            warmup_ops: 9600,
        },
        build: |seed, traced| {
            req(
                reqpath::Params {
                    conns: 8,
                    active: 8,
                    req_bytes: 256,
                },
                seed,
                traced,
            )
        },
    },
    Spec {
        name: "req_many",
        sizing: Sizing {
            slice_ops: 2560,
            warmup_ops: 5120,
        },
        build: |seed, traced| {
            req(
                reqpath::Params {
                    conns: 1024,
                    active: 32,
                    req_bytes: 256,
                },
                seed,
                traced,
            )
        },
    },
    Spec {
        name: "bulk",
        sizing: Sizing {
            slice_ops: 640,
            warmup_ops: 1280,
        },
        build: |seed, traced| {
            req(
                reqpath::Params {
                    conns: 4,
                    active: 4,
                    req_bytes: 4096,
                },
                seed,
                traced,
            )
        },
    },
    Spec {
        name: "store_hot",
        sizing: Sizing {
            slice_ops: 20480,
            warmup_ops: 40960,
        },
        build: |seed, traced| {
            store(
                storewl::Params {
                    working_set: 192,
                    write_permille: 50,
                    txn_permille: 0,
                    flush_every: 0,
                    zipf_s: 0.99,
                },
                seed,
                traced,
            )
        },
    },
    Spec {
        name: "store_churn",
        sizing: Sizing {
            slice_ops: 896,
            warmup_ops: 1792,
        },
        build: |seed, traced| {
            store(
                storewl::Params {
                    working_set: 4096,
                    write_permille: 500,
                    txn_permille: 250,
                    flush_every: 1024,
                    zipf_s: 0.0,
                },
                seed,
                traced,
            )
        },
    },
    Spec {
        name: "kernel_ext",
        sizing: Sizing {
            slice_ops: 80,
            warmup_ops: 160,
        },
        build: |seed, traced| Ok(Box::new(kernelext::KernelExt::build(seed, traced)?)),
    },
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => map.insert(k[2..].to_owned(), v.clone()),
            _ => return Err(format!("expected `--key value` pairs, got {pair:?}")),
        };
    }
    let mut take = |k: &str| map.remove(k);
    let name = take("workload").ok_or("--workload is required")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no workload `{name}`"))?;
    let num = |k: &str, v: Option<String>, default: f64| match v {
        Some(v) => v.parse::<f64>().map_err(|e| format!("--{k} {v}: {e}")),
        None => Ok(default),
    };
    let args = Args {
        spec,
        seed: match take("seed") {
            Some(v) => v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
            None => 1,
        },
        seconds: num("seconds", take("seconds"), 10.0)?,
        trace: num("trace", take("trace"), 0.0)? != 0.0,
        out: take("out").unwrap_or_else(|| "benchmark/out".to_owned()),
    };
    match map.keys().next() {
        Some(k) => Err(format!("unknown option --{k}")),
        None => Ok(args),
    }
}

/// One equal-op slice of the measured phase.
struct Slice {
    wall_ns: u64,
    cpu_us: u64,
    p50_ns: u32,
    /// Host-speed factor: reference time of the calibration kernel over
    /// its time beside this slice (mean of the runs before and after).
    /// Below 1 when the host ran slow.
    speed: f64,
}

/// Order statistics across slices of the three host times.
struct Timing {
    wall_us_per_op: Summary,
    cpu_us_per_op: Summary,
    op_p50_us: Summary,
}

/// What one measured phase produced.
struct Phase {
    sizing: Sizing,
    slices: Vec<Slice>,
    attempted: u64,
    failed: u64,
    /// Counter deltas, digest and allocations over the first
    /// `COUNT_SLICES` slices; `totals` are the same counters since the
    /// workload was built.
    counts: Counts,
    totals: Counts,
    digest: u64,
    allocs: (u64, u64),
    ledger: Option<Ledger>,
    /// Every op latency, when the caller asked to keep them.
    lat_ns: Vec<u32>,
    read_ns: Vec<u32>,
    write_ns: Vec<u32>,
    fin: Final,
}

impl Phase {
    fn count_ops(&self) -> f64 {
        (COUNT_SLICES as u64 * self.sizing.slice_ops) as f64
    }

    /// The host times per slice: as measured, or (`scaled`) each slice's
    /// multiplied by the host speed read beside it, i.e. as if the host had
    /// run every slice at the reference speed.
    fn timing(&self, scaled: bool) -> Timing {
        let ops = self.sizing.slice_ops as f64;
        let across = |time: &dyn Fn(&Slice) -> f64| {
            let factor = |s: &Slice| if scaled { s.speed } else { 1.0 };
            summarize(
                &self
                    .slices
                    .iter()
                    .map(|s| time(s) * factor(s))
                    .collect::<Vec<_>>(),
            )
        };
        Timing {
            wall_us_per_op: across(&|s| s.wall_ns as f64 / 1e3 / ops),
            cpu_us_per_op: across(&|s| s.cpu_us as f64 / ops),
            op_p50_us: across(&|s| f64::from(s.p50_ns) / 1e3),
        }
    }
}

fn delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .zip(before)
        .map(|((name, a), (_, b))| (*name, a - b))
        .collect()
}

/// Builds the workload and runs its warm-up: everything before the first
/// measured op.
fn set_up(spec: &Spec, seed: u64, traced: bool) -> Res<Box<dyn Workload>> {
    let mut w = (spec.build)(seed, traced)?;
    let mut lat = Vec::new();
    let mut ops = 0;
    while ops < spec.sizing.warmup_ops {
        let b = w.run_batch(&mut lat)?;
        if b.failed > 0 {
            return Err(format!("{} ops failed during warm-up", b.failed));
        }
        ops += b.ops;
        lat.clear();
    }
    Ok(w)
}

/// Runs slices on a set-up workload until `seconds` have passed (and at
/// least `COUNT_SLICES`), then the end-of-run verification.
fn measure(
    spec: &Spec,
    mut w: Box<dyn Workload>,
    seconds: f64,
    traced: bool,
    keep_latencies: bool,
) -> Res<Phase> {
    let sizing = spec.sizing;
    let mut lat: Vec<u32> = Vec::with_capacity(sizing.slice_ops as usize + 64);
    let mut lat_ns = Vec::new();
    let mut slices: Vec<Slice> = Vec::with_capacity(1024);
    let (mut attempted, mut failed) = (0, 0);
    let counts0 = w.counts()?;
    let allocs0 = measure::allocs();
    let (mut counts, mut totals, mut digest, mut allocs) = (Vec::new(), Vec::new(), 0, (0, 0));
    if let Some(c) = w.call_times() {
        c.read_ns.clear();
        c.write_ns.clear();
    }
    if traced {
        trace::start(w.cycle_reader());
    }
    let mut calibrator = Calibrator::new();
    let mut before = calibrator.run();
    let started = Instant::now();
    while slices.len() < COUNT_SLICES || started.elapsed().as_secs_f64() < seconds {
        lat.clear();
        w.between_slices();
        let (cpu0, t0) = (measure::cpu_us(), Instant::now());
        let mut ops = 0;
        while ops < sizing.slice_ops {
            let b = w.run_batch(&mut lat)?;
            ops += b.ops;
            failed += b.failed;
        }
        let (wall_ns, cpu_us) = (t0.elapsed().as_nanos() as u64, measure::cpu_us() - cpu0);
        if ops != sizing.slice_ops {
            return Err(format!("slice of {ops} ops, expected {}", sizing.slice_ops));
        }
        let after = calibrator.run();
        attempted += ops;
        if keep_latencies {
            lat_ns.extend_from_slice(&lat);
        }
        slices.push(Slice {
            wall_ns,
            cpu_us,
            p50_ns: measure::quantile(&mut lat, 0.50),
            speed: CALIBRATION_REF_NS / ((before + after) / 2.0),
        });
        before = after;
        if slices.len() == COUNT_SLICES {
            let a = measure::allocs();
            allocs = (a.0 - allocs0.0, a.1 - allocs0.1);
            totals = w.counts()?;
            counts = delta(&totals, &counts0);
            digest = w.digest()?;
        }
    }
    let ledger = traced.then(trace::finish);
    let (read_ns, write_ns) = match w.call_times() {
        Some(c) => (
            std::mem::take(&mut c.read_ns),
            std::mem::take(&mut c.write_ns),
        ),
        None => (Vec::new(), Vec::new()),
    };
    let fin = w.finish()?;
    Ok(Phase {
        sizing,
        slices,
        attempted,
        failed: failed + fin.failed,
        counts,
        totals,
        digest,
        allocs,
        ledger,
        lat_ns,
        read_ns,
        write_ns,
        fin,
    })
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics. Each host time is taken per slice, scaled by
/// the host speed read beside that slice, and reported as its decile on
/// the fast side across slices. A slice spans many periods of anything the
/// program does on a schedule (checkpoint, flush, connection rotation), so
/// slices differ by what the host adds, and the host only ever adds time.
/// README.md, "Steadiness", has the measurements behind both choices.
fn end_to_end(phase: &Phase, peak_rss_mib: f64, setup_s: f64) -> Metrics {
    let t = phase.timing(true);
    vec![
        ("ops_per_s".into(), 1e6 / t.wall_us_per_op.p10, "1/s"),
        ("cpu_us_per_op".into(), t.cpu_us_per_op.p10, "us"),
        ("op_p50_us".into(), t.op_p50_us.p10, "us"),
        ("peak_rss_mib".into(), peak_rss_mib, "MiB"),
        ("setup_s".into(), setup_s, "s"),
    ]
}

fn count(counts: &Counts, name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric: the ledger rows, what the counts and call
/// timings give, then the probes.
fn per_layer(plain: &Phase, traced: &Phase, probes: Vec<probes::Probe>) -> Metrics {
    let ledger = traced.ledger.as_ref().expect("traced phase has a ledger");
    let traced_ops = traced.attempted as f64;
    let mut m: Metrics = Vec::new();
    for layer in LAYERS {
        let r = ledger.rows[layer as usize];
        let name = layer.name();
        m.push((
            format!("{name}.calls_per_op"),
            r.calls as f64 / traced_ops,
            "count",
        ));
        m.push((
            format!("{name}.self_ns_per_op"),
            r.self_ns as f64 / traced_ops,
            "ns",
        ));
        m.push((
            format!("{name}.self_cycles_per_op"),
            r.self_cycles as f64 / traced_ops,
            "cycles",
        ));
    }
    let calls = |layer: Layer, methods: &[&str]| -> f64 {
        ledger
            .by_method
            .iter()
            .filter(|(l, m, _)| *l == layer && methods.contains(&m.as_str()))
            .fold(0.0, |sum, (_, _, r)| sum + r.calls as f64)
    };

    // Counts come from the traced phase; `main` has checked they equal the
    // untraced phase's.
    let c = &traced.counts;
    let ops = traced.count_ops();
    let per_op = |name: &str| count(c, name) / ops;
    let per_kop = |name: &str| 1e3 * count(c, name) / ops;
    let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.to_owned(), v, unit));

    push("netstack.tcp.segs_per_op", per_op("tcp.segs_tx"), "count");
    push(
        "netstack.tcp.bytes_per_seg",
        ratio(count(c, "tcp.bytes_tx"), count(c, "tcp.segs_tx")),
        "B",
    );
    push(
        "netstack.tcp.pumps_per_op",
        calls(Layer::Tcp, &["pump"]) / traced_ops,
        "count",
    );
    push(
        "netstack.tcp.retransmits_per_kop",
        per_kop("tcp.retransmits"),
        "count",
    );
    push(
        "netstack.arp.hit_ratio",
        // Resolution happens while connections open, so over the whole
        // life of the endpoints, not the measured ops.
        ratio(
            count(&traced.totals, "arp.hits"),
            count(&traced.totals, "arp.hits") + count(&traced.totals, "arp.misses"),
        ),
        "ratio",
    );
    push(
        "netstack.route.noroute_per_kop",
        per_kop("route.no_route"),
        "count",
    );
    push(
        "netstack.route.failover_per_kop",
        per_kop("route.failover"),
        "count",
    );
    let checked = count(c, "filter.checked");
    push(
        "netstack.filter.accept_ratio",
        ratio(checked - count(c, "filter.rejected"), checked),
        "ratio",
    );
    push(
        "netstack.simlink.frames_per_op",
        per_op("simlink.sent"),
        "count",
    );
    push(
        "netstack.simlink.dropped_per_kop",
        per_kop("simlink.dropped"),
        "count",
    );
    // A gauge (steps of the latest run), so not a delta.
    push(
        "sfi.vm_steps_per_run",
        count(&traced.totals, "sfi.last_steps"),
        "count",
    );

    let (hits, misses) = (count(c, "cache.hits"), count(c, "cache.misses"));
    push("store.cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    push(
        "store.cache.evictions_per_kop",
        // Every miss fills a line; what did not grow the cache evicted.
        1e3 * (misses - count(c, "cache.resident")).max(0.0) / ops,
        "count",
    );
    push(
        "store.cache.writeback_batch_mean",
        ratio(count(c, "cache.writebacks"), count(c, "journal.commits")),
        "count",
    );
    push(
        "store.journal.log_sectors_per_user_sector",
        ratio(
            count(c, "journal.appended_records"),
            count(c, "journal.user_sectors"),
        ),
        "ratio",
    );
    push(
        "store.journal.checkpoints_per_kop",
        per_kop("journal.checkpoints"),
        "count",
    );
    push(
        "store.journal.commits_per_append",
        ratio(
            count(c, "journal.commits"),
            count(c, "journal.group_appends"),
        ),
        "ratio",
    );
    push(
        "store.retry.retries_per_kop",
        per_kop("retry.retries"),
        "count",
    );
    push(
        "store.driver.requests_per_op",
        calls(Layer::Driver, &["read", "write", "read_many", "write_many"]) / traced_ops,
        "count",
    );
    push(
        "store.driver.disk_reads_per_op",
        per_op("driver.reads"),
        "count",
    );
    push(
        "store.driver.disk_writes_per_op",
        per_op("driver.writes"),
        "count",
    );
    let q = |v: &[u32], q: f64| {
        if v.is_empty() {
            0.0
        } else {
            f64::from(measure::quantile(&mut v.to_vec(), q))
        }
    };
    push("store.read_p50_ns", q(&traced.read_ns, 0.50), "ns");
    push("store.write_p50_ns", q(&traced.write_ns, 0.50), "ns");
    push("store.write_p99_ns", q(&traced.write_ns, 0.99), "ns");
    push("store.flush_us", plain.fin.flush_us, "us");

    push("machine.cycles_per_op", per_op("machine.cycles"), "cycles");
    push(
        "machine.charge_events_per_op",
        per_op("machine.charge_events"),
        "count",
    );
    push(
        "machine.context_switches_per_op",
        per_op("machine.context_switches"),
        "count",
    );
    push(
        "machine.tlb_misses_per_op",
        per_op("machine.tlb_misses"),
        "count",
    );

    push(
        "core.proxy.crossings_per_op",
        per_op("proxy.crossings"),
        "count",
    );
    push("core.proxy.bytes_per_op", per_op("proxy.bytes"), "B");
    let (cached, full) = (
        count(c, "cert.cache_hits"),
        count(c, "cert.full_validations"),
    );
    push(
        "cert.cache_hit_ratio",
        ratio(cached, cached + full),
        "ratio",
    );

    // Allocations are the program's, so from the untraced phase.
    let plain_ops = plain.count_ops();
    push(
        "alloc.count_per_op",
        plain.allocs.0 as f64 / plain_ops,
        "count",
    );
    push("alloc.bytes_per_op", plain.allocs.1 as f64 / plain_ops, "B");
    push(
        "bench.trace_overhead_ratio",
        ratio(
            traced.timing(true).cpu_us_per_op.p10,
            plain.timing(true).cpu_us_per_op.p10,
        ),
        "ratio",
    );
    push(
        "bench.traced_op_us",
        ledger.root_ns as f64 / traced_ops / 1e3,
        "us",
    );
    // Demoted from the end-to-end list: its run-to-run spread is beyond
    // any bound worth gating on. Over every op of the untraced phase.
    push(
        "bench.op_p99_us",
        f64::from(measure::quantile(&mut plain.lat_ns.clone(), 0.99)) / 1e3,
        "us",
    );
    // The untraced phase's times as the host clock gave them, before
    // host-speed scaling, and the median speed they were scaled by.
    let raw = plain.timing(false);
    push("bench.raw_ops_per_s", 1e6 / raw.wall_us_per_op.p10, "1/s");
    push("bench.raw_cpu_us_per_op", raw.cpu_us_per_op.p10, "us");
    push("bench.raw_op_p50_us", raw.op_p50_us.p10, "us");
    push(
        "bench.host_speed",
        summarize(&plain.slices.iter().map(|s| s.speed).collect::<Vec<_>>()).median,
        "ratio",
    );
    // Cannot be an end-to-end metric (those carry a relative bound and may
    // never be 0); a non-zero value also fails the run outright.
    push(
        "bench.fail_ratio",
        ratio(
            (plain.failed + traced.failed) as f64,
            (plain.attempted + traced.attempted) as f64,
        ),
        "ratio",
    );
    // The low 48 bits: exact in a JSON number.
    push(
        "bench.run_digest",
        (plain.digest & 0xFFFF_FFFF_FFFF) as f64,
        "hash",
    );
    m.extend(
        probes
            .into_iter()
            .map(|(name, v, unit)| (name.to_owned(), v, unit)),
    );
    m
}

fn summary_json(s: Summary) -> Json {
    Json::obj([
        ("p10", Json::Num(s.p10)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("p90", Json::Num(s.p90)),
        ("samples", Json::Num(s.n as f64)),
    ])
}

fn timing_json(t: &Timing) -> Json {
    Json::obj([
        ("wall_us_per_op", summary_json(t.wall_us_per_op)),
        ("cpu_us_per_op", summary_json(t.cpu_us_per_op)),
        ("op_p50_us", summary_json(t.op_p50_us)),
    ])
}

fn phase_json(p: &Phase) -> Json {
    Json::obj([
        ("attempted", Json::Num(p.attempted as f64)),
        ("failed", Json::Num(p.failed as f64)),
        ("slice_ops", Json::Num(p.sizing.slice_ops as f64)),
        ("scaled", timing_json(&p.timing(true))),
        ("raw", timing_json(&p.timing(false))),
        (
            "slices",
            Json::obj([
                (
                    "wall_ms",
                    Json::Arr(
                        p.slices
                            .iter()
                            .map(|s| Json::Num(s.wall_ns as f64 / 1e6))
                            .collect(),
                    ),
                ),
                (
                    "host_speed",
                    Json::Arr(p.slices.iter().map(|s| Json::Num(s.speed)).collect()),
                ),
            ]),
        ),
        ("count_ops", Json::Num(p.count_ops())),
        (
            "counts",
            Json::Obj(
                p.counts
                    .iter()
                    .map(|(n, v)| ((*n).to_owned(), Json::Str(v.to_string())))
                    .collect(),
            ),
        ),
        ("run_digest", Json::Str(format!("{:016x}", p.digest))),
        ("readback_checked", Json::Num(p.fin.checked as f64)),
        ("readback_failed", Json::Num(p.fin.failed as f64)),
    ])
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn ledger_json(ledger: &Ledger, ops: u64) -> Json {
    let total = ledger.root_ns.max(1) as f64;
    let rows = LAYERS
        .iter()
        .map(|&l| {
            let r = ledger.rows[l as usize];
            Json::obj([
                ("layer", Json::Str(l.name().into())),
                ("calls_per_op", Json::Num(r.calls as f64 / ops as f64)),
                ("self_ns_per_op", Json::Num(r.self_ns as f64 / ops as f64)),
                (
                    "self_cycles_per_op",
                    Json::Num(r.self_cycles as f64 / ops as f64),
                ),
                ("share", Json::Num(r.self_ns as f64 / total)),
            ])
        })
        .collect();
    let by_method = ledger
        .by_method
        .iter()
        .map(|(l, method, r)| {
            Json::obj([
                ("layer", Json::Str(l.name().into())),
                ("method", Json::Str(method.clone())),
                ("calls", Json::Num(r.calls as f64)),
                ("self_ns", Json::Num(r.self_ns as f64)),
                ("self_cycles", Json::Num(r.self_cycles as f64)),
            ])
        })
        .collect();
    let spans = ledger
        .raw
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::Str(s.layer.name().into()),
                Json::Str(ledger.methods[s.method as usize].clone()),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(s.start_cycle as f64),
                Json::Num(s.end_cycle as f64),
                Json::Num(if s.parent == u32::MAX {
                    -1.0
                } else {
                    f64::from(s.parent)
                }),
                Json::Num(s.root as f64),
            ])
        })
        .collect();
    Json::obj([
        ("ops", Json::Num(ops as f64)),
        ("root_spans", Json::Num(ledger.roots as f64)),
        ("root_ns", Json::Num(ledger.root_ns as f64)),
        ("root_cycles", Json::Num(ledger.root_cycles as f64)),
        ("ledger", Json::Arr(rows)),
        ("by_method", Json::Arr(by_method)),
        (
            "span_fields",
            Json::Arr(
                [
                    "layer",
                    "method",
                    "start_ns",
                    "end_ns",
                    "start_cycle",
                    "end_cycle",
                    "parent",
                    "root",
                ]
                .iter()
                .map(|s| Json::Str((*s).into()))
                .collect(),
            ),
        ),
        ("spans_truncated", Json::Bool(ledger.raw_truncated)),
        ("spans", Json::Arr(spans)),
    ])
}

fn print_ledger(ledger: &Ledger, ops: u64) {
    eprintln!(
        "{:<18} {:>12} {:>14} {:>16} {:>8}",
        "layer", "calls/op", "self ns/op", "self cycles/op", "share %"
    );
    for l in LAYERS {
        let r = ledger.rows[l as usize];
        eprintln!(
            "{:<18} {:>12.3} {:>14.1} {:>16.1} {:>8.2}",
            l.name(),
            r.calls as f64 / ops as f64,
            r.self_ns as f64 / ops as f64,
            r.self_cycles as f64 / ops as f64,
            100.0 * r.self_ns as f64 / ledger.root_ns.max(1) as f64
        );
    }
    eprintln!(
        "{:<18} {:>12} {:>14.1} {:>16.1} {:>8.2}",
        "total",
        "",
        ledger.root_ns as f64 / ops as f64,
        ledger.root_cycles as f64 / ops as f64,
        100.0
    );
}

fn run(args: &Args, started: Instant) -> Res<(bool, u64, u64, Metrics)> {
    let spec = args.spec;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    let write = |file: String, j: &Json| {
        let path = format!("{}/{file}", args.out);
        std::fs::write(&path, j.render()).map_err(|e| format!("{path}: {e}"))
    };

    if !args.trace {
        // The measured phase runs on the first set-up, and peak memory is
        // read right after it, before the remaining set-ups (which leak: a
        // dropped world is not fully freed). The first set-up is timed from
        // process start and also pays what a process pays once (the
        // harness's shared key generation, first-touch page faults); the
        // out file keeps it as `first`, and the median of the nine does not
        // see it. Each set-up is scaled by the host speed read around it,
        // like the slices.
        let mut calibrator = Calibrator::new();
        let mut timed_set_up = |t: Instant| -> Res<(Box<dyn Workload>, f64, f64)> {
            let before = calibrator.run();
            let w = set_up(spec, args.seed, false)?;
            let took = t.elapsed().as_secs_f64();
            let speed = CALIBRATION_REF_NS / ((before + calibrator.run()) / 2.0);
            Ok((w, took, speed))
        };
        let (w, first, speed) = timed_set_up(started)?;
        let (mut raw, mut scaled) = (vec![first], vec![first * speed]);
        let phase = measure(spec, w, args.seconds, false, false)?;
        let peak_rss_mib = measure::peak_rss_mib();
        while raw.len() < SETUPS {
            let (_, took, speed) = timed_set_up(Instant::now())?;
            raw.push(took);
            scaled.push(took * speed);
        }
        let setup = summarize(&scaled);
        let metrics = end_to_end(&phase, peak_rss_mib, setup.median);
        let mut j = phase_json(&phase);
        j.insert("workload", Json::Str(spec.name.into()));
        j.insert("seed", Json::Num(args.seed as f64));
        j.insert(
            "setup_s",
            Json::obj([
                ("scaled", summary_json(setup)),
                ("raw", summary_json(summarize(&raw))),
                ("first", Json::Num(first)),
            ]),
        );
        j.insert("metrics", metrics_json(&metrics));
        write(format!("{}.json", spec.name), &j)?;
        for (name, value, unit) in &metrics {
            eprintln!("{:<12} {name:<16} {value:>14.4} {unit}", spec.name);
        }
        // What the gated values were taken from: the median across slices
        // with its inter-quartile range and sample count, as scaled and as
        // the host clock gave it.
        let (t, r) = (phase.timing(true), phase.timing(false));
        for (name, unit, scaled, raw) in [
            ("wall_us_per_op", "us", t.wall_us_per_op, r.wall_us_per_op),
            ("cpu_us_per_op", "us", t.cpu_us_per_op, r.cpu_us_per_op),
            ("op_p50_us", "us", t.op_p50_us, r.op_p50_us),
            ("setup_s", "s", setup, summarize(&raw)),
        ] {
            for (kind, s) in [("scaled", scaled), ("raw", raw)] {
                eprintln!(
                    "{:<12} {name:<16} {kind:<6} p10 {:.4}, median {:.4}, quartiles {:.4}..{:.4} {unit}, {} samples",
                    spec.name, s.p10, s.median, s.q1, s.q3, s.n
                );
            }
        }
        return Ok((phase.failed == 0, phase.attempted, phase.failed, metrics));
    }

    // Traced run: the same workload untraced for a third of the time, then
    // with a timing interposer at every boundary for half of it; the
    // probes take the rest.
    let plain = measure(
        spec,
        set_up(spec, args.seed, false)?,
        args.seconds * 0.3,
        false,
        true,
    )?;
    let traced = measure(
        spec,
        set_up(spec, args.seed, true)?,
        args.seconds * 0.5,
        true,
        false,
    )?;
    let ledger = traced.ledger.as_ref().expect("traced");
    ledger.check_sums()?;
    if plain.counts != traced.counts || plain.digest != traced.digest {
        return Err(format!(
            "interposition changed the program: counts {:?} vs {:?}, digest {:x} vs {:x}",
            plain.counts, traced.counts, plain.digest, traced.digest
        ));
    }
    let probes = probes::run(&mut StdRng::seed_from_u64(args.seed))?;
    let metrics = per_layer(&plain, &traced, probes);

    print_ledger(ledger, traced.attempted);
    for (name, value, unit) in metrics.iter().skip(3 * LAYERS.len()) {
        eprintln!("{:<12} {name:<44} {value:>16.4} {unit}", spec.name);
    }
    let mut j = ledger_json(ledger, traced.attempted);
    j.insert("workload", Json::Str(spec.name.into()));
    j.insert("seed", Json::Num(args.seed as f64));
    j.insert("untraced", phase_json(&plain));
    j.insert("traced", phase_json(&traced));
    j.insert("metrics", metrics_json(&metrics));
    write(format!("trace_{}.json", spec.name), &j)?;

    let failed = plain.failed + traced.failed;
    Ok((
        failed == 0,
        plain.attempted + traced.attempted,
        failed,
        metrics,
    ))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok((correct, attempted, failed, metrics)) => {
            let result = Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("metrics", metrics_json(&metrics)),
            ]);
            println!("{}", result.render_line());
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("ledger: {failed} of {attempted} ops failed their oracle");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ledger: {}: {e}", args.spec.name);
            ExitCode::from(1)
        }
    }
}
