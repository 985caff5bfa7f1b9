//! FNV-1a 64-bit hashing.
//!
//! One tiny, dependency-free hash serves two jobs that must be
//! deterministic across platforms and runs:
//!
//! * artifact checksums in run manifests (change detection, not
//!   adversary resistance);
//! * per-flow hashing in the simulator's multipath spreading, where the
//!   hash of a packet's 5-tuple-ish key decides which loop-free alternate
//!   a flow takes. `std`'s `DefaultHasher` (SipHash) is both slower and
//!   not guaranteed stable across Rust releases, so it is unsuitable for
//!   bit-reproducible experiments.
//!
//! A third job, lookup tables keyed by a few integers, wants neither
//! FNV's byte loop nor SipHash's rounds: [`MulHasher`] folds each integer
//! into the state with one rotate, xor and multiply. It is for `HashMap`s
//! that are only ever probed, never iterated, so no output depends on its
//! values.

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash a byte slice with FNV-1a 64.
pub const fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = OFFSET_BASIS;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(PRIME);
        i += 1;
    }
    hash
}

/// Incremental FNV-1a 64 state, for hashing structured keys (integer
/// fields in little-endian byte order) without materializing a buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// Fresh state at the offset basis.
    pub const fn new() -> Self {
        Fnv1a64(OFFSET_BASIS)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// Absorb a `u16` as little-endian bytes.
    pub fn write_u16(&mut self, x: u16) {
        self.write(&x.to_le_bytes());
    }

    /// Absorb a `u32` as little-endian bytes.
    pub fn write_u32(&mut self, x: u32) {
        self.write(&x.to_le_bytes());
    }

    /// Absorb a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The accumulated hash.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// The odd multiplier of [`MulHasher`] (`2^64 / φ`, rounded to odd).
const MUL_FACTOR: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiplicative [`Hasher`] for in-memory lookup tables keyed by
/// integers: each integer written becomes `state = (state.rotl(5) ^ x) ·
/// K`. Fast and deterministic, but not collision-resistant and not a
/// checksum — the tables it serves are probed, never iterated.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

/// [`MulHasher`] as a `HashMap`'s `BuildHasher`.
pub type MulBuildHasher = BuildHasherDefault<MulHasher>;

impl MulHasher {
    #[inline]
    fn absorb(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(MUL_FACTOR);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.absorb(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.absorb(x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Published FNV-1a 64 reference vectors (Noll's test suite /
        // draft-eastlake-fnv). The empty string must equal the offset
        // basis; the single letters and the "fo".."foobar" prefix chain
        // pin every byte of the avalanche, not just the final value.
        let vectors: &[(&[u8], u64)] = &[
            (b"", 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"b", 0xaf63_df4c_8601_f1a5),
            (b"c", 0xaf63_de4c_8601_eff2),
            (b"d", 0xaf63_d94c_8601_e773),
            (b"e", 0xaf63_d84c_8601_e5c0),
            (b"f", 0xaf63_db4c_8601_ead9),
            (b"fo", 0x0898_5907_b541_d342),
            (b"foo", 0xdcb2_7518_fed9_d577),
            (b"foob", 0xdd12_0e79_0c25_12af),
            (b"fooba", 0xcac1_65af_a2fe_f40a),
            (b"foobar", 0x8594_4171_f739_67e8),
            (b"chongo was here!\n", 0x4681_0940_eff5_f915),
        ];
        for &(input, want) in vectors {
            assert_eq!(fnv1a_64(input), want, "fnv1a_64({:?})", String::from_utf8_lossy(input));
            // The incremental hasher must agree byte for byte.
            let mut h = Fnv1a64::new();
            h.write(input);
            assert_eq!(h.finish(), want, "incremental {:?}", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn one_shot_is_const_evaluable() {
        // The flow-hash path relies on compile-time evaluation of
        // constant keys staying in sync with the runtime hasher.
        const H: u64 = fnv1a_64(b"foobar");
        assert_eq!(H, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn integer_writes_match_le_bytes() {
        let mut a = Fnv1a64::new();
        a.write_u32(0xdead_beef);
        a.write_u16(0x1234);
        let mut b = Fnv1a64::new();
        b.write(&0xdead_beef_u32.to_le_bytes());
        b.write(&0x1234_u16.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinct_keys_hash_apart() {
        // Not a collision-resistance claim, just a sanity check that field
        // order matters (src/dst swapped must differ for flow hashing).
        let mut fwd = Fnv1a64::new();
        fwd.write_u32(1);
        fwd.write_u32(2);
        let mut rev = Fnv1a64::new();
        rev.write_u32(2);
        rev.write_u32(1);
        assert_ne!(fwd.finish(), rev.finish());
    }

    #[test]
    fn mul_hasher_separates_keys_that_differ_in_one_field() {
        use std::hash::BuildHasher;
        let hash = |key: (u32, u32, u64, u32, u64)| MulBuildHasher::default().hash_one(key);
        let base = (3, 7, 1_000_000, 1440, 5_000_000_000);
        let mut seen = vec![hash(base)];
        for key in [
            (7, 3, 1_000_000, 1440, 5_000_000_000),
            (3, 7, 1_000_001, 1440, 5_000_000_000),
            (3, 7, 1_000_000, 1441, 5_000_000_000),
            (3, 7, 1_000_000, 1440, 5_000_000_001),
        ] {
            let h = hash(key);
            assert!(!seen.contains(&h), "{key:?} collides");
            seen.push(h);
        }
        // Deterministic: the same key, the same hash, in any hasher.
        assert_eq!(hash(base), seen[0]);
        // Byte writes agree with the word they spell.
        let (mut a, mut b) = (MulHasher::default(), MulHasher::default());
        a.write(&0x0123_4567_89ab_cdef_u64.to_le_bytes());
        b.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(a.finish(), b.finish());
    }
}
