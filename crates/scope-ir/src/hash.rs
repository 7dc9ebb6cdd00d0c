//! The stack's one unkeyed word-at-a-time hasher: it computes the memo's
//! and the interner's hash-consing keys, indexes maps probed by keys that
//! are already hashes or small ids, and serves the serving layer's map,
//! entry checksum and decision-stream fingerprint.
//!
//! One multiply-rotate step per 8-byte word, where SipHash-1-3 runs a
//! 14-operation round per word, three more to finish, and buffers every
//! small integer write; a finishing avalanche spreads the last words into
//! the low bits a map indexes by.
//!
//! Each step is a bijection of the state for a fixed word and of the word
//! for a fixed state, so two inputs of the same shape that differ in one
//! word always hash apart: a torn field never slips past a checksum.
//! Unkeyed is safe where the keys are not chosen by an adversary: memo
//! and interner keys hash the optimizer's own operators and ids, and every
//! hit on them is confirmed structurally (a collision costs one more
//! probe); serving keys are published by the flight controller (a request
//! key can only collide with them, which costs one string compare).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// See the module docs. `Clone`, so a state can be kept after a prefix and
/// resumed ([`crate::ExprInterner::prefix_hasher`]).
#[derive(Clone, Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn step(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.step(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // The tail's length goes in the top byte, so "ab" and "ab\0"
            // hash apart.
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            w[7] = tail.len() as u8;
            self.step(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // MurmurHash3's 64-bit finalizer.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A `HashMap` hashed with [`WordHasher`]; make one with `default()`.
pub type WordHashMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
