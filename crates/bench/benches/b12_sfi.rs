//! E12 — what lowering once at load buys at run time: the fully-checked
//! oracle vs the lowered executor on the same verified programs.
//!
//! Each benign workload runs to `Halt` under both with identical data and
//! fuel; the interesting figure is the per-workload ratio
//! `checked/<name>` : `elided/<name>` — what every loaded component ran
//! until the loader lowered them all, against what it runs now. (The id
//! predates the lowering, which keeps every check; it stays so the record
//! compares.) The load-time price of each regime is beside it:
//! `lower/<name>` is the lowering alone, all a certified or sandboxed load
//! pays; `analyze/<name>` adds the abstract interpretation to fixpoint a
//! verified load runs first — the paper's core trade, a bounded load-time
//! check against a per-step run-time tax.
//!
//! Benchmark ids are stable so `--baseline <BENCH_b12_sfi.json made from
//! the parent in this session>` prints before/after deltas directly.

use criterion::{criterion_group, criterion_main, Criterion};
use paramecium::sfi::analysis;
use paramecium::sfi::bytecode::Reg;
use paramecium::sfi::interp::{ElidedInterp, ElidedProgram, Interp};
use paramecium::sfi::workloads;

const FUEL: u64 = 1 << 24;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e12_sfi");
    let suite = workloads::benign_suite();

    for (name, program) in &suite {
        let analysis = analysis::analyze(program).expect("benign workload analyzes");
        analysis.verdict(program).expect("benign workload verifies");
        let elided = ElidedProgram::lower(program);
        let data: Vec<u8> = (0..program.data_len).map(|i| i as u8).collect();

        // Sanity: both engines agree before we time anything.
        let mut slow = Interp::new(program);
        slow.load_data(0, &data);
        slow.set_reg(Reg(1), 0);
        let mut fast = ElidedInterp::new(&elided);
        fast.load_data(0, &data);
        fast.set_reg(Reg(1), 0);
        assert_eq!(slow.run(FUEL), fast.run(FUEL), "{name}: engines diverge");

        g.bench_function(format!("checked/{name}"), |b| {
            b.iter(|| {
                let mut it = Interp::new(std::hint::black_box(program));
                it.load_data(0, &data);
                it.set_reg(Reg(1), 0);
                it.run(FUEL).unwrap()
            })
        });

        g.bench_function(format!("elided/{name}"), |b| {
            b.iter(|| {
                let mut it = ElidedInterp::new(std::hint::black_box(&elided));
                it.load_data(0, &data);
                it.set_reg(Reg(1), 0);
                it.run(FUEL).unwrap()
            })
        });

        // Load-time cost of the certified and sandboxed regimes.
        g.bench_function(format!("lower/{name}"), |b| {
            b.iter(|| ElidedProgram::lower(std::hint::black_box(program)))
        });

        // Load-time cost of the verified regime: full abstract
        // interpretation to fixpoint, then the same lowering.
        g.bench_function(format!("analyze/{name}"), |b| {
            b.iter(|| {
                let a = analysis::analyze(std::hint::black_box(program)).unwrap();
                ElidedProgram::compile(program, &a)
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
