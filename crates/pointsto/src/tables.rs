//! The table of abstract objects.

use nadroid_ir::{ClassId, InstrId};

/// The allocation key of an abstract object: a `new` site or a
/// framework-managed component singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AllocKey {
    /// A `new` instruction.
    Site(InstrId),
    /// The framework-managed instance of a component class.
    Singleton(ClassId),
}

/// An abstract object id, usable as a Datalog term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

/// The table of abstract objects named by allocation-site chains:
/// `[own key, creator key, creator's creator key, ...]` truncated to the
/// analysis depth `k` — the heap-cloning form of k-object-sensitivity
/// (§5: Chord's k-object-sensitive naming, k = 2 by default). The solver
/// creates each chain once, so the table keeps no index by chain.
#[derive(Debug, Clone, Default)]
pub struct ObjTable {
    chains: Vec<Vec<AllocKey>>,
    classes: Vec<Option<ClassId>>,
}

impl ObjTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an object named by `chain` (first element is its own
    /// allocation key), recording the allocated class. The caller names
    /// each object once: the table does not look for an equal chain.
    pub(crate) fn push(&mut self, chain: Vec<AllocKey>, class: Option<ClassId>) -> ObjId {
        let id = ObjId(self.chains.len() as u32);
        self.chains.push(chain);
        self.classes.push(class);
        id
    }

    /// The naming chain of an object.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not interned here.
    #[must_use]
    pub fn chain(&self, o: ObjId) -> &[AllocKey] {
        &self.chains[o.0 as usize]
    }

    /// The object's own allocation key (head of its chain).
    #[must_use]
    pub fn key(&self, o: ObjId) -> AllocKey {
        self.chains[o.0 as usize][0]
    }

    /// The allocated class, when known.
    #[must_use]
    pub fn class(&self, o: ObjId) -> Option<ClassId> {
        self.classes[o.0 as usize]
    }

    /// Number of interned objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// Iterate all object ids.
    pub fn iter(&self) -> impl Iterator<Item = ObjId> + '_ {
        (0..self.chains.len() as u32).map(ObjId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_are_numbered_in_push_order() {
        let mut t = ObjTable::new();
        let s = AllocKey::Site(InstrId::from_raw(7));
        let main = ClassId::from_raw(0);
        let a = t.push(vec![s], None);
        let c = t.push(vec![s, AllocKey::Singleton(main)], Some(main));
        assert_eq!((a, c), (ObjId(0), ObjId(1)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.key(c), s);
        assert_eq!(t.chain(c), [s, AllocKey::Singleton(main)]);
        assert_eq!(t.class(c), Some(main));
    }
}
