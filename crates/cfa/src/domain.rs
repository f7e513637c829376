//! The abstract domain of §3.2: abstract values, contours, and environments.
//!
//! ```text
//! a ∈ Avalue   = Aconst + Aclosure + Apair (+ Avector)
//! τ ∈ Aconst   = {true, false, nil, number, …}
//! (l, ρ, κ)λ ∈ Aclosure = Label × Aenv × Contour
//! (l, κ)ᵖ ∈ Apair       = Label × Contour
//! ρ ∈ Aenv     = Var → Contour
//! κ ∈ Contour  = finite strings of labels
//! ```
//!
//! Contours and closure environments are interned so abstract values stay
//! `Copy` and sets of them stay cheap to compare and hash.

use fdi_lang::{Label, Sym, VarId};
use std::collections::HashMap;
use std::fmt;

/// An interned contour (a finite string of labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContourId(pub u32);

impl ContourId {
    /// The empty (initial) contour.
    pub const EMPTY: ContourId = ContourId(0);
}

impl fmt::Display for ContourId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "κ{}", self.0)
    }
}

/// Interns contours; [`ContourId::EMPTY`] is always id 0.
#[derive(Debug, Clone)]
pub struct ContourTable {
    strings: Vec<Vec<Label>>,
    map: HashMap<Vec<Label>, ContourId>,
}

impl ContourTable {
    /// Creates a table containing only the empty contour.
    pub fn new() -> ContourTable {
        let mut t = ContourTable {
            strings: Vec::new(),
            map: HashMap::new(),
        };
        let id = t.intern(Vec::new());
        debug_assert_eq!(id, ContourId::EMPTY);
        t
    }

    /// Interns a label string.
    pub fn intern(&mut self, labels: Vec<Label>) -> ContourId {
        if let Some(&id) = self.map.get(&labels) {
            return id;
        }
        let id = ContourId(self.strings.len() as u32);
        self.map.insert(labels.clone(), id);
        self.strings.push(labels);
        id
    }

    /// Looks up an existing contour without interning.
    pub fn get(&self, labels: &[Label]) -> Option<ContourId> {
        self.map.get(labels).copied()
    }

    /// The label string of a contour.
    pub fn labels(&self, id: ContourId) -> &[Label] {
        &self.strings[id.0 as usize]
    }

    /// `κ : l` — appends a label (the `let` rule's contour extension).
    pub fn extend(&mut self, id: ContourId, label: Label) -> ContourId {
        let mut s = self.strings[id.0 as usize].clone();
        s.push(label);
        self.intern(s)
    }

    /// `κ[l′/l]` — replaces every occurrence of `from` with `to`
    /// (the polymorphic-splitting substitution).
    pub fn subst(&mut self, id: ContourId, from: Label, to: Label) -> ContourId {
        let s = &self.strings[id.0 as usize];
        if !s.contains(&from) {
            return id;
        }
        let s: Vec<Label> = s.iter().map(|&l| if l == from { to } else { l }).collect();
        self.intern(s)
    }

    /// Keeps only the last `k` labels (the k-CFA call-strings policy).
    pub fn truncate_last(&mut self, id: ContourId, k: usize) -> ContourId {
        let s = &self.strings[id.0 as usize];
        if s.len() <= k {
            return id;
        }
        let s = s[s.len() - k..].to_vec();
        self.intern(s)
    }

    /// Number of distinct contours created (an analysis cost statistic).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when only the empty contour exists.
    pub fn is_empty(&self) -> bool {
        self.strings.len() <= 1
    }
}

impl Default for ContourTable {
    fn default() -> Self {
        ContourTable::new()
    }
}

/// An interned abstract environment: the restriction of ρ to a λ's free
/// variables, stored sorted by variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsEnvId(pub u32);

impl AbsEnvId {
    /// The empty environment.
    pub const EMPTY: AbsEnvId = AbsEnvId(0);
}

/// Interns abstract environments.
#[derive(Debug, Clone)]
pub struct AbsEnvTable {
    envs: Vec<Vec<(VarId, ContourId)>>,
    map: HashMap<Vec<(VarId, ContourId)>, AbsEnvId>,
}

impl AbsEnvTable {
    /// Creates a table containing only the empty environment.
    pub fn new() -> AbsEnvTable {
        let mut t = AbsEnvTable {
            envs: Vec::new(),
            map: HashMap::new(),
        };
        let id = t.intern(Vec::new());
        debug_assert_eq!(id, AbsEnvId::EMPTY);
        t
    }

    /// Interns a binding list (must be sorted by `VarId`).
    pub fn intern(&mut self, mut bindings: Vec<(VarId, ContourId)>) -> AbsEnvId {
        bindings.sort_unstable_by_key(|&(v, _)| v);
        if let Some(&id) = self.map.get(&bindings) {
            return id;
        }
        let id = AbsEnvId(self.envs.len() as u32);
        self.map.insert(bindings.clone(), id);
        self.envs.push(bindings);
        id
    }

    /// The bindings of an environment.
    pub fn bindings(&self, id: AbsEnvId) -> &[(VarId, ContourId)] {
        &self.envs[id.0 as usize]
    }

    /// Looks up one variable.
    pub fn lookup(&self, id: AbsEnvId, v: VarId) -> Option<ContourId> {
        self.envs[id.0 as usize]
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, c)| c)
    }

    /// Number of distinct environments.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// True when only the empty environment exists.
    pub fn is_empty(&self) -> bool {
        self.envs.len() <= 1
    }
}

impl Default for AbsEnvTable {
    fn default() -> Self {
        AbsEnvTable::new()
    }
}

/// An interned abstract closure `(l, ρ, κ)λ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClosureId(pub u32);

/// The payload of an abstract closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbsClosure {
    /// The λ-expression's label.
    pub lambda: Label,
    /// The restriction of the creation environment to the λ's free variables.
    pub env: AbsEnvId,
    /// The creation contour.
    pub contour: ContourId,
}

/// Interns abstract closures.
#[derive(Debug, Clone, Default)]
pub struct ClosureTable {
    closures: Vec<AbsClosure>,
    map: HashMap<AbsClosure, ClosureId>,
}

impl ClosureTable {
    /// Creates an empty table.
    pub fn new() -> ClosureTable {
        ClosureTable::default()
    }

    /// Interns a closure.
    pub fn intern(&mut self, c: AbsClosure) -> ClosureId {
        if let Some(&id) = self.map.get(&c) {
            return id;
        }
        let id = ClosureId(self.closures.len() as u32);
        self.map.insert(c, id);
        self.closures.push(c);
        id
    }

    /// The payload of a closure.
    pub fn get(&self, id: ClosureId) -> AbsClosure {
        self.closures[id.0 as usize]
    }

    /// Number of distinct abstract closures.
    pub fn len(&self) -> usize {
        self.closures.len()
    }

    /// True when no closure has been interned.
    pub fn is_empty(&self) -> bool {
        self.closures.is_empty()
    }
}

/// An abstract constant τ. `Num`, `Char`, and `Str` each denote the set of
/// all such values (like the paper's `number`); booleans, `nil`, and symbols
/// stay precise — symbol precision is what lets `case` dispatch prune.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsConst {
    /// `#t`.
    True,
    /// `#f`.
    False,
    /// `'()`.
    Nil,
    /// Any number.
    Num,
    /// Any character.
    Char,
    /// Any string.
    Str,
    /// One specific symbol.
    Sym(Sym),
    /// Some unknown symbol (result of `string->symbol`).
    AnySym,
    /// The unspecified value.
    Unspec,
}

/// An abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsVal {
    /// An abstract constant.
    Const(AbsConst),
    /// An abstract closure.
    Clo(ClosureId),
    /// `(l, κ)ᵖ` — pairs allocated by the `cons` (or rest-argument site) at
    /// `l` in contour `κ`.
    Pair(Label, ContourId),
    /// Vectors allocated at `l` in contour `κ`.
    Vector(Label, ContourId),
}

impl AbsVal {
    /// True when this value could be `#f` (the only false value in Scheme).
    pub fn may_be_false(self) -> bool {
        self == AbsVal::Const(AbsConst::False)
    }

    /// True when this value is definitely not `#f`.
    pub fn is_truthy(self) -> bool {
        !self.may_be_false()
    }
}

/// A monotone set of abstract values, kept as a sorted, duplicate-free
/// vector: flow sets are small, so binary search and linear merges beat a
/// tree's per-node allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValSet {
    vals: Vec<AbsVal>,
}

impl ValSet {
    /// The empty set (⊥).
    pub fn new() -> ValSet {
        ValSet::default()
    }

    /// A singleton set.
    pub fn singleton(v: AbsVal) -> ValSet {
        ValSet { vals: vec![v] }
    }

    /// Inserts a value; true if the set grew.
    pub fn insert(&mut self, v: AbsVal) -> bool {
        match self.vals.binary_search(&v) {
            Ok(_) => false,
            Err(i) => {
                self.vals.insert(i, v);
                true
            }
        }
    }

    /// Unions in `other`; true if the set grew.
    pub fn union_with(&mut self, other: &ValSet) -> bool {
        let mut new = Vec::new();
        self.missing(other, &mut new);
        if new.is_empty() {
            return false;
        }
        self.merge_disjoint(&new);
        true
    }

    /// Appends the values of `other` that are not in `self` to `out`, in
    /// sorted order. Each search starts past the previous hit, so a small
    /// delta into a large set costs O(|other| log |self|).
    pub(crate) fn missing(&self, other: &ValSet, out: &mut Vec<AbsVal>) {
        let mut lo = 0;
        for &v in &other.vals {
            match self.vals[lo..].binary_search(&v) {
                Ok(i) => lo += i + 1,
                Err(i) => {
                    lo += i;
                    out.push(v);
                }
            }
        }
    }

    /// Merges in `new`: sorted values none of which is in the set yet. The
    /// merge runs in place from the back, so appending costs O(|new|).
    pub(crate) fn merge_disjoint(&mut self, new: &[AbsVal]) {
        let Some(&first) = new.first() else { return };
        let (mut i, mut j) = (self.vals.len(), new.len());
        self.vals.resize(i + j, first);
        while j > 0 {
            if i > 0 && self.vals[i - 1] > new[j - 1] {
                self.vals[i + j - 1] = self.vals[i - 1];
                i -= 1;
            } else {
                self.vals[i + j - 1] = new[j - 1];
                j -= 1;
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, v: AbsVal) -> bool {
        self.vals.binary_search(&v).is_ok()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Iterates in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = AbsVal> + '_ {
        self.vals.iter().copied()
    }

    /// True when any member is truthy (activates an `if`'s then-branch).
    pub fn may_be_true(&self) -> bool {
        self.vals.iter().any(|v| v.is_truthy())
    }

    /// True when `#f` is a member (activates an `if`'s else-branch).
    pub fn may_be_false(&self) -> bool {
        self.contains(AbsVal::Const(AbsConst::False))
    }

    /// The sole element, if the set is a singleton.
    pub fn as_singleton(&self) -> Option<AbsVal> {
        match self.vals[..] {
            [v] => Some(v),
            _ => None,
        }
    }
}

impl FromIterator<AbsVal> for ValSet {
    fn from_iter<T: IntoIterator<Item = AbsVal>>(iter: T) -> ValSet {
        let mut vals: Vec<AbsVal> = iter.into_iter().collect();
        vals.sort_unstable();
        vals.dedup();
        ValSet { vals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contour_interning_and_extension() {
        let mut t = ContourTable::new();
        assert_eq!(t.intern(vec![]), ContourId::EMPTY);
        let a = t.extend(ContourId::EMPTY, Label(3));
        let b = t.extend(a, Label(7));
        assert_eq!(t.labels(b), &[Label(3), Label(7)]);
        assert_eq!(t.extend(ContourId::EMPTY, Label(3)), a);
        assert_eq!(t.get(&[Label(3)]), Some(a));
        assert_eq!(t.get(&[Label(9)]), None);
    }

    #[test]
    fn contour_substitution() {
        let mut t = ContourTable::new();
        let a = t.intern(vec![Label(1), Label(2), Label(1)]);
        let b = t.subst(a, Label(1), Label(9));
        assert_eq!(t.labels(b), &[Label(9), Label(2), Label(9)]);
        // No occurrence → same id, no new interning.
        let before = t.len();
        assert_eq!(t.subst(a, Label(5), Label(9)), a);
        assert_eq!(t.len(), before);
    }

    #[test]
    fn contour_truncation() {
        let mut t = ContourTable::new();
        let a = t.intern(vec![Label(1), Label(2), Label(3)]);
        let b = t.truncate_last(a, 2);
        assert_eq!(t.labels(b), &[Label(2), Label(3)]);
        assert_eq!(t.truncate_last(a, 5), a);
        let z = t.truncate_last(a, 0);
        assert_eq!(t.labels(z), &[]);
        assert_eq!(z, ContourId::EMPTY);
    }

    #[test]
    fn env_interning_sorts_and_dedups() {
        let mut t = AbsEnvTable::new();
        let a = t.intern(vec![(VarId(2), ContourId(1)), (VarId(1), ContourId(0))]);
        let b = t.intern(vec![(VarId(1), ContourId(0)), (VarId(2), ContourId(1))]);
        assert_eq!(a, b);
        assert_eq!(t.lookup(a, VarId(1)), Some(ContourId(0)));
        assert_eq!(t.lookup(a, VarId(3)), None);
    }

    #[test]
    fn closure_interning() {
        let mut t = ClosureTable::new();
        let c = AbsClosure {
            lambda: Label(4),
            env: AbsEnvId::EMPTY,
            contour: ContourId::EMPTY,
        };
        let a = t.intern(c);
        assert_eq!(t.intern(c), a);
        assert_eq!(t.get(a), c);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn valset_agrees_with_a_btreeset() {
        fdi_testutil::check("valset_vs_btreeset", 200, |rng| {
            // Few distinct values, so inserts and unions often overlap.
            let val = |rng: &mut fdi_testutil::Rng| match rng.index(3) {
                0 => AbsVal::Const(AbsConst::Sym(Sym(rng.index(6) as u32))),
                1 => AbsVal::Clo(ClosureId(rng.index(40) as u32)),
                _ => AbsVal::Pair(Label(rng.index(8) as u32), ContourId(rng.index(3) as u32)),
            };
            let mut set = ValSet::new();
            let mut reference = std::collections::BTreeSet::new();
            for _ in 0..30 {
                if rng.chance(0.5) {
                    let v = val(rng);
                    assert_eq!(set.insert(v), reference.insert(v));
                } else {
                    let n = if rng.chance(0.5) {
                        rng.index(3)
                    } else {
                        rng.index(60)
                    };
                    let other: ValSet = (0..n).map(|_| val(rng)).collect();
                    let mut missing = Vec::new();
                    set.missing(&other, &mut missing);
                    let expected: Vec<AbsVal> =
                        other.iter().filter(|v| !reference.contains(v)).collect();
                    assert_eq!(missing, expected);
                    assert_eq!(set.union_with(&other), !expected.is_empty());
                    reference.extend(other.iter());
                }
                assert!(set.iter().eq(reference.iter().copied()));
                for v in [val(rng), val(rng)] {
                    assert_eq!(set.contains(v), reference.contains(&v));
                }
            }
        });
    }

    #[test]
    fn valset_monotone_ops() {
        let mut s = ValSet::new();
        assert!(s.insert(AbsVal::Const(AbsConst::True)));
        assert!(!s.insert(AbsVal::Const(AbsConst::True)));
        let mut t = ValSet::singleton(AbsVal::Const(AbsConst::False));
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s));
        assert_eq!(t.len(), 2);
        assert!(t.may_be_true());
        assert!(t.may_be_false());
    }

    #[test]
    fn truthiness() {
        assert!(AbsVal::Const(AbsConst::Nil).is_truthy());
        assert!(AbsVal::Const(AbsConst::Num).is_truthy());
        assert!(!AbsVal::Const(AbsConst::False).is_truthy());
        let s = ValSet::singleton(AbsVal::Const(AbsConst::False));
        assert!(!s.may_be_true());
        assert!(s.may_be_false());
    }

    #[test]
    fn singleton_accessor() {
        let s = ValSet::singleton(AbsVal::Pair(Label(1), ContourId::EMPTY));
        assert_eq!(
            s.as_singleton(),
            Some(AbsVal::Pair(Label(1), ContourId::EMPTY))
        );
        let mut s2 = s.clone();
        s2.insert(AbsVal::Const(AbsConst::Nil));
        assert_eq!(s2.as_singleton(), None);
        assert_eq!(ValSet::new().as_singleton(), None);
    }
}
