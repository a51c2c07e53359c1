//! Micro-benchmarks of the cryptographic substrate: real host-CPU
//! throughput of the from-scratch SHA-256/HMAC and the simulated
//! signature/threshold operations.
//!
//! `sha256/*` runs the kernel the dispatcher selects on this host (named
//! in the rows' prefix), `sha256_portable/*` the scalar reference, so the
//! kernel ratio is two rows of one run; likewise `hmac/64` (key schedule
//! on every call) next to `hmac_cached/64` (a prepared [`HmacKey`]).
//! `merkle_root/*` builds a tree over 2, 32 and 128 slot digests (`n − 1`
//! compressions), and `domain_digest/52` hashes a range statement's
//! fields under a tag block compressed at compile time (one compression).

use spider_bench::time_per_call;
use spider_crypto::hmac::{hmac_sha256, HmacKey};
use spider_crypto::sha256::{Domain, Sha256};
use spider_crypto::threshold::ThresholdGroupId;
use spider_crypto::{merkle_root, Digest, KeyId, Keyring, ThresholdKeyring};
use std::hint::black_box;

fn main() {
    let group = format!("crypto[{}]", Sha256::kernel());
    let key = HmacKey::new(b"key");
    for size in [64usize, 1024, 16384] {
        let data = vec![0xabu8; size];
        time_per_call(
            &format!("{group}/sha256/{size}"),
            || (),
            |_| Sha256::digest(black_box(&data)),
        );
        time_per_call(
            &format!("{group}/sha256_portable/{size}"),
            || (),
            |_| Sha256::digest_portable(black_box(&data)),
        );
        time_per_call(
            &format!("{group}/hmac/{size}"),
            || (),
            |_| hmac_sha256(b"key", black_box(&data)),
        );
        if size == 64 {
            time_per_call(&format!("{group}/hmac_cached/64"), || (), |_| key.mac(black_box(&data)));
        }
    }
    for n in [2u64, 32, 128] {
        let leaves: Vec<Digest> = (0..n).map(|i| Digest::builder().u64(i).finish()).collect();
        time_per_call(
            &format!("{group}/merkle_root/{n}"),
            || (),
            |_| merkle_root(black_box(&leaves)),
        );
    }
    const STATEMENT: Domain = Domain::new("micro_crypto statement");
    let fields = [0x5au8; 52];
    time_per_call(
        &format!("{group}/domain_digest/52"),
        || (),
        |_| STATEMENT.digest(black_box(&fields)),
    );

    let ring = Keyring::new(1);
    let d = Digest::of_bytes(b"content");
    let sig = ring.sign(KeyId(1), &d);
    time_per_call("signatures/sign", || (), |_| ring.sign(KeyId(1), black_box(&d)));
    time_per_call("signatures/verify", || (), |_| ring.verify(KeyId(1), black_box(&d), &sig));

    let tkr = ThresholdKeyring::new(1, 2);
    let s0 = tkr.share(ThresholdGroupId(0), 0, &d);
    let s1 = tkr.share(ThresholdGroupId(0), 1, &d);
    time_per_call("threshold/share", || (), |_| tkr.share(ThresholdGroupId(0), 0, black_box(&d)));
    time_per_call("threshold/combine", || (), |_| tkr.combine(black_box(&d), &[s0, s1]));
}
