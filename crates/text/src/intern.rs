//! Token interning: string → dense `u32` IDs.
//!
//! The interned extraction fast path resolves every token to a small
//! integer once, then matches, stems and scores over integers. The
//! interner keeps all token text in one contiguous arena (`String`) with
//! `(start, end)` spans per ID, so [`resolve`](TokenInterner::resolve) is
//! a bounds check and a slice — no per-token heap object survives the
//! build.
//!
//! The map is keyed with [`FxHasher`], a fixed multiply-rotate hash,
//! instead of std's randomly keyed SipHash: every review token is looked
//! up here, and SipHash was most of the cost of a lookup. A fixed hash
//! gives no protection against keys crafted to collide, which is sound
//! only because what is *inserted* is build-time vocabulary (hierarchy
//! terms and the lexicon). Review text only looks keys up, and a lookup
//! costs at most the probe length the build-time keys already produced.
//! Tables that insert review text keep std's `RandomState`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A build-once, lookup-many string interner with dense `u32` IDs.
///
/// IDs are assigned in insertion order starting at 0; interning the same
/// string twice returns the same ID. Intern only trusted strings (see
/// the module docs); lookups with [`get`](Self::get) take any input.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    map: HashMap<String, u32, BuildHasherDefault<FxHasher>>,
    arena: String,
    spans: Vec<(u32, u32)>,
}

impl TokenInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its ID (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.spans.len() as u32;
        let start = self.arena.len() as u32;
        self.arena.push_str(s);
        self.spans.push((start, self.arena.len() as u32));
        self.map.insert(s.to_owned(), id);
        id
    }

    /// Look up the ID of `s` without inserting.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// The string behind an ID.
    ///
    /// # Panics
    /// If `id` was not returned by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        let (a, b) = self.spans[id as usize];
        &self.arena[a as usize..b as usize]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// The Fx hash (as in rustc): per 8-byte word, rotate, xor, multiply.
/// Not keyed, so not collision resistant; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i = TokenInterner::new();
        assert_eq!(i.intern("screen"), 0);
        assert_eq!(i.intern("battery"), 1);
        assert_eq!(i.intern("screen"), 0);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(0), "screen");
        assert_eq!(i.resolve(1), "battery");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = TokenInterner::new();
        assert!(i.get("ghost").is_none());
        i.intern("real");
        assert_eq!(i.get("real"), Some(0));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn non_bmp_round_trips() {
        let mut i = TokenInterner::new();
        let id = i.intern("𝑨𝑩");
        assert_eq!(i.resolve(id), "𝑨𝑩");
        assert_eq!(i.intern("𝑨𝑩"), id);
    }

    #[test]
    fn empty_string_is_a_valid_key() {
        let mut i = TokenInterner::new();
        let id = i.intern("");
        assert_eq!(i.resolve(id), "");
        assert!(!i.is_empty());
    }
}
