//! Dense side tables keyed by [`ValueId`].
//!
//! A [`ValueId`] is an index into the kernel's instruction arena, so a
//! table keyed by one is a vector, not a hash map — Cranelift's
//! `SecondaryMap` / `EntitySet`. Both tables are sized once, from the
//! arena length. A read outside that range is a miss; a write outside
//! it is a bug in the caller and panics like any slice index.

use crate::ir::ValueId;
use std::ops::Index;

/// `ValueId → T`; every entry is absent until inserted.
#[derive(Debug, Default, PartialEq)]
pub struct ValueMap<T> {
    slots: Vec<Option<T>>,
}

impl<T: Copy> ValueMap<T> {
    /// An empty map over an arena of `len` values.
    pub fn new(len: usize) -> Self {
        ValueMap {
            slots: vec![None; len],
        }
    }

    /// The entry for `v`, if one was inserted.
    pub fn get(&self, v: ValueId) -> Option<T> {
        self.slots.get(v.index()).copied().flatten()
    }

    /// Set the entry for `v`.
    pub fn insert(&mut self, v: ValueId, t: T) {
        self.slots[v.index()] = Some(t);
    }
}

impl<T> Index<ValueId> for ValueMap<T> {
    type Output = T;

    /// The entry for `v`; panics if there is none.
    fn index(&self, v: ValueId) -> &T {
        self.slots[v.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("no entry for {v}"))
    }
}

/// A set of [`ValueId`]s, one bit per arena slot.
#[derive(Debug)]
pub struct ValueSet {
    words: Vec<u64>,
}

impl ValueSet {
    /// An empty set over an arena of `len` values.
    pub fn new(len: usize) -> Self {
        ValueSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: ValueId) -> bool {
        self.words
            .get(v.index() / 64)
            .is_some_and(|w| w >> (v.index() % 64) & 1 == 1)
    }

    /// Add `v`; true if it was not already there.
    pub fn insert(&mut self, v: ValueId) -> bool {
        let (word, bit) = (&mut self.words[v.index() / 64], 1 << (v.index() % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Remove `v` (a no-op if it is absent).
    pub fn remove(&mut self, v: ValueId) {
        self.words[v.index() / 64] &= !(1 << (v.index() % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_outside_the_arena_miss() {
        let v = ValueId::from_raw;
        let mut m: ValueMap<u8> = ValueMap::new(3);
        assert_eq!(m.get(v(1)), None);
        m.insert(v(1), 7);
        m.insert(v(1), 9);
        assert_eq!((m.get(v(1)), m[v(1)]), (Some(9), 9));
        assert_eq!(m.get(v(3)), None, "past the arena: a miss, not a panic");
        assert_eq!(m.get(v(u32::MAX)), None);

        let mut s = ValueSet::new(70);
        assert!(s.insert(v(69)) && !s.insert(v(69)));
        assert!(s.contains(v(69)) && !s.contains(v(5)));
        assert!(!s.contains(v(4096)), "past the arena: absent");
        s.remove(v(69));
        s.remove(v(5));
        assert!(!s.contains(v(69)));
    }
}
