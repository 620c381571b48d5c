//! Resource (functional-unit) allocations.
//!
//! A [`ResourceSet`] describes the datapath's functional-unit instances.
//! In the threaded scheduler each unit becomes one *thread*; in the list
//! scheduler each unit is a slot that an operation can occupy for its
//! delay. The paper's experiments use allocations written like `2+/- 2*`
//! (two ALUs, two multipliers); [`ResourceSet::classic`] builds those.

use crate::{OpKind, PrecedenceGraph, ResourceClass};
use std::fmt;

/// Delay sums per [`OpKind`], indexed by `kind as usize`: what
/// [`ResourceSet::floor_of`] folds into the resource floor.
pub type KindWork = [u64; OpKind::ALL.len()];

/// Sums the delays of `g` per [`OpKind`].
pub fn kind_work(g: &PrecedenceGraph) -> KindWork {
    let mut work = [0; OpKind::ALL.len()];
    for v in g.op_ids() {
        work[g.kind(v) as usize] += g.delay(v);
    }
    work
}

/// A fixed allocation of functional-unit instances.
///
/// Units are indexed `0..k()`. A *uniform* set (built by
/// [`ResourceSet::uniform`]) models the paper's simplifying assumption
/// that "each functional unit can implement all the operations"; a typed
/// set restricts each unit to the operations of its [`ResourceClass`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResourceSet {
    units: Vec<Option<ResourceClass>>,
}

impl ResourceSet {
    /// Creates an empty allocation; add units with [`ResourceSet::with`].
    pub fn new() -> Self {
        ResourceSet { units: Vec::new() }
    }

    /// Creates `k` universal units (any operation can run on any unit).
    pub fn uniform(k: usize) -> Self {
        ResourceSet {
            units: vec![None; k],
        }
    }

    /// The paper's Figure 3 style allocation: `alus` ALUs plus `muls`
    /// multipliers.
    pub fn classic(alus: usize, muls: usize) -> Self {
        ResourceSet::new()
            .with(ResourceClass::Alu, alus)
            .with(ResourceClass::Multiplier, muls)
    }

    /// Adds `count` units of `class` (builder style).
    #[must_use]
    pub fn with(mut self, class: ResourceClass, count: usize) -> Self {
        for _ in 0..count {
            self.units.push(Some(class));
        }
        self
    }

    /// Number of functional-unit instances.
    pub fn k(&self) -> usize {
        self.units.len()
    }

    /// `true` if no units were allocated.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The class of unit `i`, or `None` for a universal unit.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.k()`.
    pub fn class(&self, i: usize) -> Option<ResourceClass> {
        self.units[i]
    }

    /// `true` if operation kind `kind` may execute on unit `i`.
    ///
    /// Zero-resource kinds ([`ResourceClass::Wire`]) are compatible with
    /// no unit — they never occupy one.
    pub fn compatible(&self, i: usize, kind: OpKind) -> bool {
        let need = kind.resource_class();
        if need == ResourceClass::Wire {
            return false;
        }
        match self.units[i] {
            None => true,
            Some(class) => class == need,
        }
    }

    /// Indices of the units able to execute `kind`.
    pub fn compatible_units(&self, kind: OpKind) -> Vec<usize> {
        (0..self.k()).filter(|&i| self.compatible(i, kind)).collect()
    }

    /// Number of units of the given class (universal units match all).
    pub fn count_of(&self, class: ResourceClass) -> usize {
        self.units
            .iter()
            .filter(|u| u.is_none() || **u == Some(class))
            .count()
    }

    /// The static resource floor of `g` on these units: operations
    /// sharing one compatible-unit set serialise their delay-sum over
    /// those units, so `⌈Σ delay / #units⌉` of every distinct set
    /// lower-bounds the length of any complete schedule. Wire-class
    /// operations and operations no unit can execute occupy no unit
    /// and are skipped. `O(|V| + k)`, allocation-free: the
    /// [`floor_of`](Self::floor_of) of [`kind_work`]`(g)`.
    pub fn work_floor(&self, g: &PrecedenceGraph) -> u64 {
        self.floor_of(&kind_work(g))
    }

    /// The resource floor of a graph whose per-kind delay sums are
    /// `work` (see [`work_floor`](Self::work_floor)). A kind's unit set
    /// depends only on its class: a class with typed units runs on
    /// those plus the universal ones, and every class without typed
    /// units shares the universal units alone. So the per-kind sums
    /// determine the floor, and a caller that keeps them current as
    /// the graph grows re-folds it in `O(k)`.
    pub fn floor_of(&self, work: &KindWork) -> u64 {
        let universal = self.units.iter().filter(|u| u.is_none()).count() as u64;
        let mut floor = 0;
        let mut shared = 0;
        for class in ResourceClass::UNITS {
            let w: u64 = OpKind::ALL
                .iter()
                .filter(|k| k.resource_class() == class)
                .map(|&k| work[k as usize])
                .sum();
            let units = self.count_of(class) as u64;
            if units > universal {
                floor = floor.max(w.div_ceil(units));
            } else {
                shared += w;
            }
        }
        if universal > 0 {
            floor = floor.max(shared.div_ceil(universal));
        }
        floor
    }

    /// The certified lower bound on any complete schedule of `g` on
    /// these units: `max(‖G‖, work_floor)`. A schedule this long is
    /// provably optimal.
    ///
    /// # Panics
    ///
    /// Panics if `g` is cyclic.
    pub fn lower_bound(&self, g: &PrecedenceGraph) -> u64 {
        self.work_floor(g).max(crate::algo::diameter(g))
    }
}

impl Default for ResourceSet {
    fn default() -> Self {
        ResourceSet::new()
    }
}

impl fmt::Display for ResourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut groups: Vec<(Option<ResourceClass>, usize)> = Vec::new();
        for &u in &self.units {
            match groups.iter_mut().find(|(c, _)| *c == u) {
                Some((_, n)) => *n += 1,
                None => groups.push((u, 1)),
            }
        }
        let mut first = true;
        for (c, n) in groups {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            match c {
                Some(class) => write!(f, "{n} {class}")?,
                None => write!(f, "{n} ANY")?,
            }
        }
        if first {
            write!(f, "(no units)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_builds_typed_units() {
        let r = ResourceSet::classic(2, 1);
        assert_eq!(r.k(), 3);
        assert_eq!(r.class(0), Some(ResourceClass::Alu));
        assert_eq!(r.class(2), Some(ResourceClass::Multiplier));
        assert_eq!(r.count_of(ResourceClass::Alu), 2);
        assert_eq!(r.count_of(ResourceClass::Multiplier), 1);
    }

    #[test]
    fn uniform_units_accept_everything_but_wire() {
        let r = ResourceSet::uniform(2);
        assert!(r.compatible(0, OpKind::Mul));
        assert!(r.compatible(1, OpKind::Add));
        assert!(r.compatible(0, OpKind::Load));
        assert!(!r.compatible(0, OpKind::WireDelay));
        assert!(!r.compatible(0, OpKind::Phi));
    }

    #[test]
    fn typed_units_enforce_class() {
        let r = ResourceSet::classic(1, 1);
        assert!(r.compatible(0, OpKind::Add));
        assert!(r.compatible(0, OpKind::Sub));
        assert!(r.compatible(0, OpKind::Cmp));
        assert!(!r.compatible(0, OpKind::Mul));
        assert!(r.compatible(1, OpKind::Mul));
        assert!(!r.compatible(1, OpKind::Add));
        assert_eq!(r.compatible_units(OpKind::Mul), vec![1]);
    }

    #[test]
    fn memory_ports_serve_loads_and_stores() {
        let r = ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1);
        assert_eq!(r.compatible_units(OpKind::Load), vec![2]);
        assert_eq!(r.compatible_units(OpKind::Store), vec![2]);
    }

    #[test]
    fn display_groups_units() {
        assert_eq!(ResourceSet::classic(2, 2).to_string(), "2 ALU, 2 MUL");
        assert_eq!(ResourceSet::uniform(3).to_string(), "3 ANY");
        assert_eq!(ResourceSet::new().to_string(), "(no units)");
    }

    #[test]
    fn empty_set_has_no_compatible_units() {
        let r = ResourceSet::new();
        assert!(r.is_empty());
        assert!(r.compatible_units(OpKind::Add).is_empty());
    }
}
