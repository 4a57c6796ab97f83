//! Minimal cryptographic primitives for NDN packet signatures.
//!
//! The allowed dependency set contains no crypto crate, so this module
//! implements SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104) from scratch.
//! They back the two NDN signature flavours this reproduction needs:
//! `DigestSha256` (integrity only) and `SignatureHmacWithSha256` (shared-key
//! authenticity), plus implicit digest name components.
//!
//! Both hashers are [`bytes::BufMut`] sinks, so a packet's TLV writers can
//! stream its signed portion straight into them without building a copy.
//!
//! ## Two compression kernels, one entry point
//!
//! Every whole 64-byte block goes through `compress_blocks`, which picks one
//! of two kernels at run time:
//!
//! * **Scalar** — the FIPS 180-4 rounds in portable Rust. It runs on every
//!   target, is the fallback wherever the SHA extensions are missing, and is
//!   the oracle the tests check the other kernel against.
//! * **SHA-NI** (x86_64 only) — the same compression built from the
//!   `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions. It is chosen
//!   when `is_x86_feature_detected!` reports `sha`, `sse2`, `ssse3` and
//!   `sse4.1`. The kernel is a safe `#[target_feature]` fn, loads message
//!   words by value (`_mm_set_epi64x` over `i64::from_le_bytes`) and never
//!   casts a pointer.
//!
//! Both kernels compute the same function, so the digest never depends on
//! which one ran; only the speed does. The kernel-pair tests below pin that
//! for every message length through 200 bytes and for random split points.
//!
//! **SAFETY argument for the crate's one `unsafe` block.** Calling a
//! `#[target_feature]` fn is unsafe only because executing instructions the
//! CPU lacks is undefined behaviour. The call in `compress_blocks` sits
//! behind a run-time check of exactly the features the kernel enables, and
//! the kernel itself touches memory only through safe slices.
//!
//! The implementation is tested against the FIPS / RFC 4231 test vectors.

use bytes::BufMut;
use std::slice;

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

const BLOCK_LEN: usize = 64;

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Compress `blocks` into `state`, on the SHA-NI kernel when the CPU has
/// it and on the scalar kernel otherwise. The digest is the same either way.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `shani::compress_blocks` is a safe fn whose only
        // precondition is that the CPU supports the target features it is
        // compiled with; `available` has just confirmed all of them.
        #[allow(unsafe_code)]
        unsafe {
            shani::compress_blocks(state, blocks)
        };
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The portable FIPS 180-4 compression function: the fallback kernel and
/// the oracle for the SHA-NI one.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (wi, word) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *wi = u32::from_be_bytes(*word);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            // lidc-lint: allow(panic-path) reason="the loop bounds i to 16..64 inside the fixed 64-entry schedule array"
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for (k, wi) in K.iter().zip(w) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(*k)
                .wrapping_add(wi);
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel (Intel SHA extensions).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// True when the CPU has every feature [`compress_blocks`] enables.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Two message qwords, loaded little-endian as they sit in memory, as
    /// four big-endian 32-bit words.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load_words(lo: [u8; 8], hi: [u8; 8]) -> __m128i {
        let bswap32 = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(
            _mm_set_epi64x(i64::from_le_bytes(hi), i64::from_le_bytes(lo)),
            bswap32,
        )
    }

    /// The SHA-256 compression function over `blocks`, four rounds per
    /// `sha256rnds2` pair, with the message schedule in `sha256msg1/2`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        // The round instructions keep the state as lanes (A, B, E, F) and
        // (C, D, G, H), highest lane first.
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        let (qwords, _) = blocks.as_flattened().as_chunks::<8>();
        for &[q0, q1, q2, q3, q4, q5, q6, q7] in qwords.as_chunks::<8>().0 {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // m0..m3 hold message words 4i..4i+16 at group i.
            let mut m0 = load_words(q0, q1);
            let mut m1 = load_words(q2, q3);
            let mut m2 = load_words(q4, q5);
            let mut m3 = load_words(q6, q7);
            for &[k0, k1, k2, k3] in K.as_chunks::<4>().0 {
                let wk = _mm_add_epi32(
                    m0,
                    _mm_set_epi32(k3 as i32, k2 as i32, k1 as i32, k0 as i32),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)),
                    m3,
                );
                (m0, m1, m2, m3) = (m1, m2, m3, next);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|v| v as u32);
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    /// Bytes waiting in `buffer`; always below `BLOCK_LEN` between calls.
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// New hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`. Whole blocks are compressed where they lie; only a
    /// partial block at either end is copied into the buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            let (head, rest) = data.split_at(take);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(head);
            self.buffered += take;
            data = rest;
            if self.buffered < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finish and return the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 8-byte big-endian bit length at
        // the end of this block, or of one more block when under 9 bytes
        // are free.
        let pad = &mut self.buffer[self.buffered..];
        pad.fill(0);
        if let Some(first) = pad.first_mut() {
            *first = 0x80;
        }
        if self.buffered >= BLOCK_LEN - 8 {
            compress_blocks(&mut self.state, slice::from_ref(&self.buffer));
            self.buffer = [0u8; BLOCK_LEN];
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, slice::from_ref(&self.buffer));
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        out
    }
}

impl BufMut for Sha256 {
    fn put_slice(&mut self, data: &[u8]) {
        self.update(data);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Incremental HMAC-SHA256 (RFC 2104).
pub struct HmacSha256 {
    /// Hashes `key ^ ipad ‖ message`.
    inner: Sha256,
    /// Has absorbed `key ^ opad`; takes the inner digest at the end.
    outer: Sha256,
}

impl HmacSha256 {
    /// New MAC under `key` (keys longer than a block are hashed first).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the MAC.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

impl BufMut for HmacSha256 {
    fn put_slice(&mut self, data: &[u8]) {
        self.update(data);
    }
}

/// One-shot HMAC-SHA256 (RFC 2104).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Hex-encode a digest (for diagnostics and digest name components).
pub fn to_hex(bytes: &[u8]) -> String {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(NIBBLES[usize::from(b >> 4)]));
        s.push(char::from(NIBBLES[usize::from(b & 0x0f)]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One-shot SHA-256 on the scalar kernel called directly, with the
    /// padding built the textbook way. Shares no code with `Sha256`'s
    /// buffering, so it checks that too.
    fn scalar_sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_blocks_scalar(&mut state, padded.as_chunks::<BLOCK_LEN>().0);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// RFC 2104 over [`scalar_sha256`].
    fn scalar_hmac(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut key = if key.len() > BLOCK_LEN {
            scalar_sha256(key).to_vec()
        } else {
            key.to_vec()
        };
        key.resize(BLOCK_LEN, 0);
        let mut inner: Vec<u8> = key.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = key.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&scalar_sha256(&inner));
        scalar_sha256(&outer)
    }

    /// The kernel `compress_blocks` dispatches to on this host.
    fn dispatched_kernel() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            return "sha-ni";
        }
        "scalar"
    }

    /// Asserts a FIPS 180-4 vector on the dispatching entry point and on
    /// the scalar kernel.
    fn assert_sha256(data: &[u8], expected: &str) {
        assert_eq!(
            to_hex(&sha256(data)),
            expected,
            "{} kernel",
            dispatched_kernel()
        );
        assert_eq!(to_hex(&scalar_sha256(data)), expected, "scalar kernel");
    }

    /// Asserts an RFC 4231 vector on both paths.
    fn assert_hmac(key: &[u8], message: &[u8], expected: &str) {
        assert_eq!(
            to_hex(&hmac_sha256(key, message)),
            expected,
            "{} kernel",
            dispatched_kernel()
        );
        assert_eq!(
            to_hex(&scalar_hmac(key, message)),
            expected,
            "scalar kernel"
        );
    }

    // FIPS 180-4 / NIST CAVS vectors.
    #[test]
    fn sha256_empty() {
        assert_sha256(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn sha256_abc() {
        assert_sha256(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_sha256(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn sha256_million_a() {
        assert_sha256(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        // Feed in irregular chunk sizes crossing block boundaries.
        let mut h = Sha256::new();
        let mut pos = 0;
        for step in [1usize, 63, 64, 65, 127, 500, 9180] {
            let end = (pos + step).min(data.len());
            h.update(&data[pos..end]);
            pos = end;
        }
        h.update(&data[pos..]);
        assert_eq!(h.finalize(), sha256(&data));
    }

    /// Every length through 200 bytes, which covers the 55/56/63/64 and
    /// 119/120 padding edges, digests the same on both kernels.
    #[test]
    fn kernels_agree_on_every_length_through_200() {
        let kernel = dispatched_kernel();
        println!("compress_blocks dispatches to the {kernel} kernel");
        let data: Vec<u8> = (0..200u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            assert_eq!(
                sha256(msg),
                scalar_sha256(msg),
                "{kernel} vs scalar, {len} bytes"
            );
        }
        // The kernel entry points themselves, over several blocks at once.
        let mut dispatched = H0;
        let mut scalar = H0;
        let (blocks, _) = data.as_chunks::<BLOCK_LEN>();
        compress_blocks(&mut dispatched, blocks);
        compress_blocks_scalar(&mut scalar, blocks);
        assert_eq!(
            dispatched,
            scalar,
            "{kernel} vs scalar, {} blocks",
            blocks.len()
        );
    }

    // RFC 4231 test cases 1, 2, and 7 (oversized key).
    #[test]
    fn hmac_rfc4231_case1() {
        assert_hmac(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        assert_hmac(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn hmac_rfc4231_case7_long_key() {
        assert_hmac(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn hmac_differs_per_key() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
    }

    proptest! {
        /// Streaming `Sha256` and `HmacSha256` at arbitrary split points
        /// equal the one-shot scalar results.
        #[test]
        fn streaming_at_random_splits_matches_oneshot_scalar(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            key in proptest::collection::vec(any::<u8>(), 0..=100),
            splits in proptest::collection::vec(any::<u16>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = splits.iter().map(|&s| usize::from(s) % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut mac = HmacSha256::new(&key);
            let mut pos = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[pos..cut]);
                mac.update(&data[pos..cut]);
                pos = cut;
            }
            prop_assert_eq!(h.finalize(), scalar_sha256(&data));
            prop_assert_eq!(mac.finalize(), scalar_hmac(&key, &data));
        }
    }
}
