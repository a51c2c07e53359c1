//! Micro-benchmarks of the cryptographic substrate: real host-CPU
//! throughput of the from-scratch SHA-256/HMAC and the simulated
//! signature/threshold operations.
//!
//! `sha256/*` runs the kernel the dispatcher selects on this host (named
//! in the group title), `sha256_portable/*` the scalar reference, so the
//! kernel ratio is two rows of one run; likewise `hmac/64` (key schedule
//! on every call) next to `hmac_cached/64` (a prepared [`HmacKey`]).
//! `merkle_root/*` builds a tree over 2, 32 and 128 slot digests (`n − 1`
//! compressions), and `domain_digest/52` hashes a range statement's
//! fields under a tag block compressed at compile time (one compression).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spider_crypto::hmac::{hmac_sha256, HmacKey};
use spider_crypto::sha256::{Domain, Sha256};
use spider_crypto::threshold::ThresholdGroupId;
use spider_crypto::{merkle_root, Digest, Keyring, ThresholdKeyring};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("crypto[{}]", Sha256::kernel()));
    let key = HmacKey::new(b"key");
    for size in [64usize, 1024, 16384] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("sha256/{size}"), |b| {
            b.iter(|| Sha256::digest(std::hint::black_box(&data)))
        });
        g.bench_function(format!("sha256_portable/{size}"), |b| {
            b.iter(|| Sha256::digest_portable(std::hint::black_box(&data)))
        });
        g.bench_function(format!("hmac/{size}"), |b| {
            b.iter(|| hmac_sha256(b"key", std::hint::black_box(&data)))
        });
        if size == 64 {
            g.bench_function("hmac_cached/64", |b| b.iter(|| key.mac(std::hint::black_box(&data))));
        }
    }
    for n in [2u64, 32, 128] {
        g.throughput(Throughput::Elements(n));
        let leaves: Vec<Digest> = (0..n).map(|i| Digest::builder().u64(i).finish()).collect();
        g.bench_function(format!("merkle_root/{n}"), |b| {
            b.iter(|| merkle_root(std::hint::black_box(&leaves)))
        });
    }
    const STATEMENT: Domain = Domain::new("micro_crypto statement");
    let fields = [0x5au8; 52];
    g.throughput(Throughput::Bytes(52));
    g.bench_function("domain_digest/52", |b| {
        b.iter(|| STATEMENT.digest(std::hint::black_box(&fields)))
    });
    g.finish();

    let ring = Keyring::new(1);
    let d = Digest::of_bytes(b"content");
    let sig = ring.sign(spider_crypto::KeyId(1), &d);
    let mut g = c.benchmark_group("signatures");
    g.bench_function("sign", |b| b.iter(|| ring.sign(spider_crypto::KeyId(1), &d)));
    g.bench_function("verify", |b| b.iter(|| ring.verify(spider_crypto::KeyId(1), &d, &sig)));
    g.finish();

    let tkr = ThresholdKeyring::new(1, 2);
    let s0 = tkr.share(ThresholdGroupId(0), 0, &d);
    let s1 = tkr.share(ThresholdGroupId(0), 1, &d);
    let mut g = c.benchmark_group("threshold");
    g.bench_function("share", |b| b.iter(|| tkr.share(ThresholdGroupId(0), 0, &d)));
    g.bench_function("combine", |b| b.iter(|| tkr.combine(&d, &[s0, s1])));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
