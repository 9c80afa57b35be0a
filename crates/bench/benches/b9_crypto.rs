//! E9 — the crypto substrate: SHA-256 throughput and RSA operation costs
//! (these set the absolute scale of every certification cost above).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paramecium::crypto::{rsa, sha256, Ubig};
use rand::{rngs::StdRng, SeedableRng};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_crypto");

    for size in [64usize, 4096, 1 << 20] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("sha256", size), &size, |b, _| {
            b.iter(|| sha256(std::hint::black_box(&data)))
        });
    }

    // The non-cryptographic neighbour: the integrity sum the journal and
    // the TCP replay digest pay on every byte.
    let kib = vec![0xA5u8; 1024];
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sum64_1kib", |b| {
        b.iter(|| paramecium::obj::sum64::fold(0, std::hint::black_box(&kib)))
    });

    g.sample_size(10);
    for bits in [512u32, 1024] {
        let kp = rsa::generate(&mut StdRng::seed_from_u64(3), bits);
        let digest = sha256(b"component image");
        g.bench_with_input(BenchmarkId::new("rsa_sign", bits), &bits, |b, _| {
            b.iter(|| rsa::sign(&kp.private, std::hint::black_box(&digest)).unwrap())
        });
        let sig = rsa::sign(&kp.private, &digest).unwrap();
        g.bench_with_input(BenchmarkId::new("rsa_verify", bits), &bits, |b, _| {
            b.iter(|| rsa::verify(&kp.public, std::hint::black_box(&digest), &sig).unwrap())
        });
    }

    // Bignum primitives underpinning both.
    let a = Ubig::from_bytes_be(&[0xF7; 128]);
    let b_ = Ubig::from_bytes_be(&[0x3C; 128]);
    let m = Ubig::from_bytes_be(&[0xD1; 64]);
    g.bench_function("bignum_mul_1024x1024", |bch| {
        bch.iter(|| std::hint::black_box(&a).mul(std::hint::black_box(&b_)))
    });
    g.bench_function("bignum_divrem_2048_by_512", |bch| {
        let prod = a.mul(&b_);
        bch.iter(|| std::hint::black_box(&prod).divrem(std::hint::black_box(&m)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
