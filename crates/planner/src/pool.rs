//! Interned proposition sets: the arena behind the optimized search core.
//!
//! Every canonical (sorted, deduplicated) proposition set the search ever
//! touches is stored exactly once in a flat arena and addressed by a
//! copyable [`SetId`]. The SLRG memo table, its per-query `best_g` map and
//! every RG node then key on a `u32` instead of hashing a boxed slice —
//! set equality becomes an integer compare, heap entries become `Copy`,
//! and regression writes into a reusable scratch buffer via a sorted
//! three-way merge instead of allocating and re-sorting per child.

use sekitei_model::PropId;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Identity of an interned proposition set. Two ids are equal iff the sets
/// are equal (the pool guarantees canonical, deduplicated storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetId(u32);

impl SetId {
    /// The empty set (always interned first by [`SetPool::new`]).
    pub const EMPTY: SetId = SetId(0);

    /// Arena slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// FNV-1a over the raw proposition ids.
fn hash_props(props: &[PropId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in props {
        h ^= p.0 as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hasher for keys that already are [`hash_props`] digests: no SipHash
/// round, just the high half folded into the low one. FNV-1a's low bits
/// depend only on the low bits of its input, and the table indexes its
/// buckets by the low bits.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the pool keys its table by u64 digests only")
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

/// The merge behind [`SetPool::regress`]: `out = (set \ adds) ∪
/// {p ∈ preconds : ¬initially(p)}` via a single three-pointer merge over
/// the three sorted inputs.
fn regress_merge(
    set: &[PropId],
    adds: &[PropId],
    preconds: &[PropId],
    mut initially: impl FnMut(PropId) -> bool,
    out: &mut Vec<PropId>,
) {
    out.clear();
    let (mut si, mut ai, mut pi) = (0usize, 0usize, 0usize);
    let mut cur_s: Option<PropId> = None; // next surviving set member
    let mut cur_p: Option<PropId> = None; // next surviving precond
    loop {
        if cur_s.is_none() {
            while si < set.len() {
                let p = set[si];
                si += 1;
                while ai < adds.len() && adds[ai] < p {
                    ai += 1;
                }
                if ai < adds.len() && adds[ai] == p {
                    continue; // achieved by this action
                }
                cur_s = Some(p);
                break;
            }
        }
        if cur_p.is_none() {
            while pi < preconds.len() {
                let p = preconds[pi];
                pi += 1;
                if initially(p) {
                    continue; // already true in the initial state
                }
                cur_p = Some(p);
                break;
            }
        }
        match (cur_s, cur_p) {
            (None, None) => break,
            (Some(a), None) => {
                out.push(a);
                cur_s = None;
            }
            (None, Some(b)) => {
                out.push(b);
                cur_p = None;
            }
            (Some(a), Some(b)) => {
                if a <= b {
                    out.push(a);
                    cur_s = None;
                    if a == b {
                        cur_p = None;
                    }
                } else {
                    out.push(b);
                    cur_p = None;
                }
            }
        }
    }
}

/// Arena of canonical proposition sets.
pub struct SetPool {
    /// All member lists back to back.
    props: Vec<PropId>,
    /// `spans[i]` bounds set `i` inside `props`.
    spans: Vec<(u32, u32)>,
    /// Content digest → the newest set with that digest.
    heads: HashMap<u64, SetId, BuildHasherDefault<DigestHasher>>,
    /// `next[i]`: the next older set sharing set `i`'s digest (collisions
    /// resolved by slice compare along the chain).
    next: Vec<Option<SetId>>,
    /// Reusable merge buffer for [`SetPool::regress`].
    scratch: Vec<PropId>,
}

impl Default for SetPool {
    fn default() -> Self {
        Self::new()
    }
}

impl SetPool {
    /// New pool with the empty set pre-interned as [`SetId::EMPTY`].
    pub fn new() -> Self {
        let mut pool = SetPool {
            props: Vec::new(),
            spans: Vec::new(),
            heads: HashMap::default(),
            next: Vec::new(),
            scratch: Vec::new(),
        };
        let empty = pool.intern_sorted(&[]);
        debug_assert_eq!(empty, SetId::EMPTY);
        pool
    }

    /// Number of distinct sets interned so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every interned set's id, in interning order.
    pub fn ids(&self) -> impl Iterator<Item = SetId> {
        (0..self.spans.len() as u32).map(SetId)
    }

    /// True iff only the empty set is interned.
    pub fn is_empty(&self) -> bool {
        self.spans.len() <= 1
    }

    /// Member propositions of an interned set (sorted).
    pub fn props_of(&self, id: SetId) -> &[PropId] {
        let (s, e) = self.spans[id.index()];
        &self.props[s as usize..e as usize]
    }

    /// Intern a canonical (sorted, deduplicated) slice.
    pub fn intern_sorted(&mut self, props: &[PropId]) -> SetId {
        debug_assert!(props.windows(2).all(|w| w[0] < w[1]), "set must be sorted+deduped");
        let id = SetId(self.spans.len() as u32);
        let older = match self.heads.entry(hash_props(props)) {
            Entry::Occupied(mut head) => {
                let mut cur = Some(*head.get());
                while let Some(c) = cur {
                    let (s, e) = self.spans[c.index()];
                    if &self.props[s as usize..e as usize] == props {
                        return c;
                    }
                    cur = self.next[c.index()];
                }
                Some(head.insert(id))
            }
            Entry::Vacant(head) => {
                head.insert(id);
                None
            }
        };
        let start = self.props.len() as u32;
        self.props.extend_from_slice(props);
        self.spans.push((start, self.props.len() as u32));
        self.next.push(older);
        id
    }

    /// Intern arbitrary propositions (sorts and dedups first).
    pub fn intern(&mut self, mut props: Vec<PropId>) -> SetId {
        props.sort_unstable();
        props.dedup();
        self.intern_sorted(&props)
    }

    /// Regression over an action: intern `(set \ adds) ∪ {p ∈ preconds :
    /// ¬initially(p)}`. All three inputs are sorted, so the result is
    /// produced by a single three-pointer merge into the reusable scratch
    /// buffer — no allocation, no re-sort.
    pub fn regress(
        &mut self,
        id: SetId,
        adds: &[PropId],
        preconds: &[PropId],
        initially: impl FnMut(PropId) -> bool,
    ) -> SetId {
        let mut out = std::mem::take(&mut self.scratch);
        regress_merge(self.props_of(id), adds, preconds, initially, &mut out);
        let rid = self.intern_sorted(&out);
        self.scratch = out;
        rid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setkey::SetKey;

    fn ids(v: &[u32]) -> Vec<PropId> {
        v.iter().map(|&x| PropId(x)).collect()
    }

    #[test]
    fn empty_is_id_zero() {
        let mut pool = SetPool::new();
        assert_eq!(pool.intern(vec![]), SetId::EMPTY);
        assert!(pool.props_of(SetId::EMPTY).is_empty());
    }

    #[test]
    fn interning_is_canonical() {
        let mut pool = SetPool::new();
        let a = pool.intern(ids(&[3, 1, 2, 2]));
        let b = pool.intern(ids(&[1, 2, 3]));
        assert_eq!(a, b);
        assert_eq!(pool.props_of(a), ids(&[1, 2, 3]).as_slice());
        let c = pool.intern(ids(&[1, 2]));
        assert_ne!(a, c);
        assert_eq!(pool.len(), 3); // empty + two distinct sets
    }

    #[test]
    fn regress_matches_setkey_regress() {
        // differential check against the boxed-slice reference on a grid of
        // small cases, including overlapping set/precond members
        type Case = (&'static [u32], &'static [u32], &'static [u32], &'static [u32]);
        let mut pool = SetPool::new();
        let cases: &[Case] = &[
            (&[1, 2, 3], &[2, 3], &[5, 7], &[]),
            (&[1], &[1], &[4, 6], &[4]),
            (&[1], &[1], &[], &[]),
            (&[2, 4, 6], &[1, 3, 5], &[2, 8], &[]),
            (&[], &[], &[1, 2, 3], &[2]),
            (&[5, 9], &[9], &[1, 5, 9], &[1]),
        ];
        for (set, adds, pre, init) in cases {
            let key = SetKey::new(ids(set));
            let adds = ids(adds);
            let pre = ids(pre);
            let init = ids(init);
            let want = key.regress(&adds, &pre, |p| init.contains(&p));
            let sid = pool.intern(ids(set));
            let rid = pool.regress(sid, &adds, &pre, |p| init.contains(&p));
            assert_eq!(pool.props_of(rid), want.props(), "case {set:?} {adds:?} {pre:?}");
        }
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let mut pool = SetPool::new();
        let a = pool.intern(ids(&[1, 2, 3, 4, 5, 6, 7, 8]));
        // a long regress followed by a short one must not leak stale tail
        let long = pool.regress(a, &[], &ids(&[9, 10]), |_| false);
        assert_eq!(pool.props_of(long).len(), 10);
        let b = pool.intern(ids(&[1]));
        let short = pool.regress(b, &ids(&[1]), &[], |_| false);
        assert_eq!(short, SetId::EMPTY);
    }
}
