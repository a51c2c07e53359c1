//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! A streaming implementation with the standard Merkle–Damgård padding,
//! over one block-level entry point, `compress_blocks`, with two kernels
//! under it:
//!
//! * the **portable** kernel — plain scalar Rust, the path on every target
//!   and CPU, and the reference the tests compare the other kernel against;
//! * the **SHA-NI** kernel — `std::arch::x86_64` intrinsics over the Intel
//!   SHA extensions, about four times the portable kernel's throughput.
//!
//! Each call picks the kernel from what the CPU reports at run time
//! (`is_x86_feature_detected!`); nothing else selects it — no Cargo
//! feature, environment variable or config field — and
//! [`Sha256::kernel`] names the choice. Both kernels compute the same
//! function, so no digest depends on the host. The call from the
//! dispatcher into the `#[target_feature]` kernel is the workspace's one
//! `unsafe` block.
//!
//! The streaming layer hands whole runs of blocks to the kernel straight
//! from the caller's slice and writes the padding in place; a caller that
//! already holds its input as padded blocks (the Merkle node hashes) skips
//! the streaming layer through the crate-private `Sha256::digest_padded`.
//! Validated against the NIST/FIPS example vectors, on both kernels, in
//! the tests below.
//!
//! # Examples
//!
//! ```
//! use spider_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//!
//! fn hex(bytes: &[u8]) -> String {
//!     bytes.iter().map(|b| format!("{b:02x}")).collect()
//! }
//! ```

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes of a block still incomplete; `buffer_len < 64` between calls.
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffer_len: 0, total_len: 0 }
    }

    /// One-shot convenience: hash `data` and return the 32-byte digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// [`Sha256::digest`] on the portable kernel whatever the CPU offers:
    /// the reference the tests and `micro_crypto` compare the dispatcher
    /// against.
    #[doc(hidden)]
    pub fn digest_portable(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_with(compress_blocks_portable, data);
        h.finalize_with(compress_blocks_portable)
    }

    /// The digest of a message the caller has already laid out as its
    /// padded blocks — content, `0x80`, zeros, 64-bit big-endian bit length
    /// (FIPS 180-4 §5.1.1): compressed from the initial state with no
    /// buffering or length bookkeeping. For fixed-layout inputs only; the
    /// caller owns the padding, so a wrong layout is a wrong digest.
    pub(crate) fn digest_padded(blocks: &[u8]) -> [u8; 32] {
        let mut state = H0;
        compress_blocks(&mut state, blocks);
        to_bytes(&state)
    }

    /// The block kernel every hasher runs on this CPU: `"sha-ni"` or
    /// `"portable"`.
    pub fn kernel() -> &'static str {
        if ni_available() {
            "sha-ni"
        } else {
            "portable"
        }
    }

    /// Feeds `data` into the hash.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress_blocks, data);
    }

    /// Finishes the hash and returns the digest.
    #[inline]
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress_blocks)
    }

    fn update_with(&mut self, compress: impl Fn(&mut [u32; 8], &[u8]), data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        // Whole blocks go to the kernel straight from the caller's slice.
        let (blocks, tail) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length, written in place.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        if n < 56 {
            self.buffer[n + 1..56].fill(0);
        } else {
            // No room left for the length: it goes into a block of its own.
            self.buffer[n + 1..].fill(0);
            compress(&mut self.state, &self.buffer);
            self.buffer[..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        to_bytes(&self.state)
    }
}

/// A chaining value as the 32 digest bytes (big-endian words).
fn to_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Runs the compression function over `blocks` (a whole number of 64-byte
/// blocks), updating the chaining value `state`.
///
/// The one block-level entry point of the crate. Every call picks the
/// kernel from what the CPU reports: the SHA-NI kernel where `sha`,
/// `sse2`, `ssse3` and `sse4.1` are all present, the portable one
/// ([`compress_blocks_portable`]) otherwise and on every other target.
#[cfg_attr(
    target_arch = "x86_64",
    expect(unsafe_code, reason = "the #[target_feature] SHA-NI kernel, under its feature check")
)]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if ni_available() {
        // SAFETY: `ni::compress` requires only the CPU features `sha`, `sse2`,
        // `ssse3` and `sse4.1`, and `ni_available()` has just detected all four.
        unsafe { ni::compress(state, blocks) };
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// Whether [`compress_blocks`] takes the SHA-NI kernel on this CPU. (std
/// caches the CPUID probe, so this is a load and a mask.)
fn ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The portable kernel: the path taken wherever SHA-NI is missing, and the
/// reference the tests compare the SHA-NI kernel against.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("chunks_exact(64)"));
    }
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-NI kernel (Intel SHA extensions), from `std::arch` intrinsics.
///
/// `sha256rnds2` runs two rounds on a state split across two registers as
/// `ABEF` / `CDGH` (high lane first); `sha256msg1` / `sha256msg2` extend
/// the message schedule four words at a time. Each 16 message bytes are
/// loaded as one register — two `i64::from_le_bytes` halves and one
/// `pshufb` that swaps every word to big-endian — and the round constants
/// sit in memory four to a row, so a round group is one load and one add.
/// Everything goes through value-level intrinsics (`_mm_set_*` /
/// `_mm_extract_*`), so the kernel touches no raw pointer.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// [`K`] in rows of four: the constants of one [`rounds`] call.
    const K4: [[u32; 4]; 16] = {
        let mut rows = [[0u32; 4]; 16];
        let mut i = 0;
        while i < 64 {
            rows[i / 4][i % 4] = K[i];
            i += 1;
        }
        rows
    };

    /// Four consecutive `u32`s as one register, `words[0]` in the low lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(words: [u32; 4]) -> __m128i {
        let [w0, w1, w2, w3] = words.map(|w| w as i32);
        _mm_set_epi32(w3, w2, w1, w0)
    }

    /// The inverse of [`lanes`].
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn words(r: __m128i) -> [u32; 4] {
        [
            _mm_extract_epi32::<0>(r),
            _mm_extract_epi32::<1>(r),
            _mm_extract_epi32::<2>(r),
            _mm_extract_epi32::<3>(r),
        ]
        .map(|w| w as u32)
    }

    /// Four big-endian message words from 16 block bytes, the first word
    /// in the low lane: the bytes as they lie in memory, then each lane
    /// byte-swapped.
    #[inline]
    #[target_feature(enable = "sse2,ssse3")]
    fn message_words(bytes: &[u8; 16]) -> __m128i {
        let (halves, _) = bytes.as_chunks::<8>();
        let (lo, hi) = (i64::from_le_bytes(halves[0]), i64::from_le_bytes(halves[1]));
        let swap_each_word = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_set_epi64x(hi, lo), swap_each_word)
    }

    /// The next four schedule words `W[t..t + 4]` from the previous
    /// sixteen, oldest four first:
    /// `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w_16: __m128i, w_12: __m128i, w_8: __m128i, w_4: __m128i) -> __m128i {
        let w_7 = _mm_alignr_epi8::<4>(w_4, w_8);
        _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w_16, w_12), w_7), w_4)
    }

    /// Four rounds over the schedule words `w` and their constants `k`:
    /// two from the low half of `w + k`, two from the high half. Each
    /// `sha256rnds2` leaves the new `ABEF` in its first operand, whose old
    /// `CDGH` is spent, and the old `ABEF` is the new `CDGH` as it stands.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: [u32; 4]) {
        let wk = _mm_add_epi32(w, lanes(k));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = lanes([f, e, b, a]);
        let mut cdgh = lanes([h, g, d, c]);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (quarters, _) = block.as_chunks::<16>();
            let mut w0 = message_words(&quarters[0]);
            let mut w1 = message_words(&quarters[1]);
            let mut w2 = message_words(&quarters[2]);
            let mut w3 = message_words(&quarters[3]);
            rounds(&mut abef, &mut cdgh, w0, K4[0]);
            rounds(&mut abef, &mut cdgh, w1, K4[1]);
            rounds(&mut abef, &mut cdgh, w2, K4[2]);
            rounds(&mut abef, &mut cdgh, w3, K4[3]);
            for k in K4[4..].chunks_exact(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds(&mut abef, &mut cdgh, w0, k[0]);
                w1 = schedule(w1, w2, w3, w0);
                rounds(&mut abef, &mut cdgh, w1, k[1]);
                w2 = schedule(w2, w3, w0, w1);
                rounds(&mut abef, &mut cdgh, w2, k[2]);
                w3 = schedule(w3, w0, w1, w2);
                rounds(&mut abef, &mut cdgh, w3, k[3]);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let [f, e, b, a] = words(abef);
        let [h, g, d, c] = words(cdgh);
        *state = [a, b, c, d, e, f, g, h];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// The dispatcher (whatever it selects on this host) and the portable
    /// reference.
    const KERNELS: [Kernel; 2] = [compress_blocks, compress_blocks_portable];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Checks a known answer on the default path and on the portable one.
    fn assert_digest(data: &[u8], expected: &str) {
        assert_eq!(hex(&Sha256::digest(data)), expected, "kernel {}", Sha256::kernel());
        assert_eq!(hex(&Sha256::digest_portable(data)), expected, "portable kernel");
    }

    #[test]
    fn nist_vector_empty() {
        assert_digest(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn nist_vector_abc() {
        assert_digest(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        assert_digest(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn nist_vector_million_a() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expected = Sha256::digest_portable(&data);
        for kernel in KERNELS {
            for split in 0..data.len() {
                let mut h = Sha256::new();
                h.update_with(kernel, &data[..split]);
                h.update_with(kernel, &data[split..]);
                assert_eq!(h.finalize_with(kernel), expected, "split at {split}");
            }
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"spider"), Sha256::digest(b"spiper"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The dispatcher's kernel, the portable reference called directly
        /// and the streaming layer agree on every input and split. On a
        /// host without SHA-NI the dispatcher is the portable kernel too,
        /// and the streaming layer is still checked against it.
        #[test]
        fn kernels_and_streaming_agree(
            data in prop::collection::vec(any::<u8>(), 0..4097),
            cut in any::<usize>(),
        ) {
            static REPORT: std::sync::Once = std::sync::Once::new();
            REPORT.call_once(|| {
                println!("differential test: dispatcher runs the {} kernel", Sha256::kernel());
            });

            let blocks = &data[..data.len() - data.len() % 64];
            let (mut dispatched, mut portable) = (H0, H0);
            compress_blocks(&mut dispatched, blocks);
            compress_blocks_portable(&mut portable, blocks);
            prop_assert_eq!(dispatched, portable);

            let expected = Sha256::digest_portable(&data);
            prop_assert_eq!(Sha256::digest(&data), expected);
            let (a, b) = data.split_at(cut % (data.len() + 1));
            let mut h = Sha256::new();
            h.update(a);
            h.update(b);
            prop_assert_eq!(h.finalize(), expected);
        }
    }
}
