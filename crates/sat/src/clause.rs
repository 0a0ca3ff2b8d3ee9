//! Clause storage.
//!
//! Clauses live in a flat arena ([`ClauseDb`]) addressed by [`ClauseRef`].
//! Each clause carries a small header (learnt flag, activity, LBD glue value)
//! followed by its literals. Deleted clauses are tombstoned and reclaimed by
//! a periodic compaction pass that rewrites all external references.

use crate::lit::Lit;

/// An index into the clause arena. Stable between garbage collections.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// A sentinel that never refers to a live clause.
    pub const INVALID: ClauseRef = ClauseRef(u32::MAX);
}

/// Header bookkeeping for one stored clause.
#[derive(Clone, Debug)]
struct ClauseHeader {
    /// Offset of the first literal in `lits`.
    start: u32,
    /// Number of literals.
    len: u32,
    /// True for conflict-learnt clauses (candidates for deletion).
    learnt: bool,
    /// Tombstone flag; deleted clauses are skipped until compaction.
    deleted: bool,
    /// Literal-block distance ("glue") measured when the clause was learnt.
    lbd: u32,
    /// Bump-based activity used to rank learnt clauses for deletion.
    activity: f64,
}

/// Arena of clauses with tombstone deletion and explicit compaction.
#[derive(Default)]
pub struct ClauseDb {
    headers: Vec<ClauseHeader>,
    lits: Vec<Lit>,
    /// Count of live (non-deleted) learnt clauses.
    num_learnt: usize,
    /// Count of live problem (original) clauses.
    num_original: usize,
    /// Literals wasted in tombstoned clauses, to decide when to compact.
    wasted: usize,
}

impl ClauseDb {
    /// Creates an empty clause database.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Adds a clause with at least two literals; returns its reference.
    ///
    /// Unit and empty clauses are handled at the solver level and never
    /// stored here.
    pub fn add(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "stored clauses must have >= 2 literals");
        let start = self.lits.len() as u32;
        self.lits.extend_from_slice(lits);
        self.headers.push(ClauseHeader {
            start,
            len: lits.len() as u32,
            learnt,
            deleted: false,
            lbd: lits.len() as u32,
            activity: 0.0,
        });
        if learnt {
            self.num_learnt += 1;
        } else {
            self.num_original += 1;
        }
        ClauseRef(self.headers.len() as u32 - 1)
    }

    /// Returns the literals of a clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let h = &self.headers[cref.0 as usize];
        &self.lits[h.start as usize..(h.start + h.len) as usize]
    }

    /// Returns the literals of a clause, mutably (used to reorder watches).
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let h = &self.headers[cref.0 as usize];
        &mut self.lits[h.start as usize..(h.start + h.len) as usize]
    }

    /// Returns `true` if the clause was learnt from a conflict.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.headers[cref.0 as usize].learnt
    }

    /// Returns `true` if the clause has been tombstoned.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.headers[cref.0 as usize].deleted
    }

    /// Records the literal-block distance for a learnt clause.
    #[inline]
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        self.headers[cref.0 as usize].lbd = lbd;
    }

    /// Returns the recorded literal-block distance.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.headers[cref.0 as usize].lbd
    }

    /// Returns the clause's deletion-ranking activity.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        self.headers[cref.0 as usize].activity
    }

    /// Bumps the clause's activity by `amount`; returns true when a global
    /// rescale is needed (activities overflowing the f64 range).
    #[inline]
    pub fn bump_activity(&mut self, cref: ClauseRef, amount: f64) -> bool {
        let a = &mut self.headers[cref.0 as usize].activity;
        *a += amount;
        *a > 1e100
    }

    /// Divides every learnt clause activity by `factor`.
    pub fn rescale_activities(&mut self, factor: f64) {
        for h in &mut self.headers {
            h.activity /= factor;
        }
    }

    /// Tombstones a clause. The reference remains valid but inert.
    pub fn delete(&mut self, cref: ClauseRef) {
        let h = &mut self.headers[cref.0 as usize];
        if !h.deleted {
            h.deleted = true;
            self.wasted += h.len as usize;
            if h.learnt {
                self.num_learnt -= 1;
            } else {
                self.num_original -= 1;
            }
        }
    }

    /// Number of live learnt clauses.
    #[inline]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Number of live original clauses.
    #[inline]
    pub fn num_original(&self) -> usize {
        self.num_original
    }

    /// Total number of live clauses.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.num_learnt + self.num_original
    }

    /// Number of arena slots (live + tombstoned); valid [`ClauseRef`]
    /// indices are `0..len()`.
    #[inline]
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True when the arena holds no clauses at all.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Returns live learnt clause references.
    pub fn iter_learnt(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.headers
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.deleted && h.learnt)
            .map(|(i, _)| ClauseRef(i as u32))
    }

    /// True when enough storage is tombstoned that compaction pays off.
    pub fn should_compact(&self) -> bool {
        self.wasted * 4 > self.lits.len().max(1)
    }

    /// Compacts the arena, dropping tombstoned clauses.
    ///
    /// Returns a remap table: `remap[old_ref] == Some(new_ref)` for surviving
    /// clauses, `None` for deleted ones. Callers must rewrite every stored
    /// [`ClauseRef`] (watch lists, reason slots) using this table.
    pub fn compact(&mut self) -> Vec<Option<ClauseRef>> {
        let mut remap = vec![None; self.headers.len()];
        let mut new_headers = Vec::with_capacity(self.num_live());
        let mut new_lits = Vec::with_capacity(self.lits.len() - self.wasted);
        for (i, h) in self.headers.iter().enumerate() {
            if h.deleted {
                continue;
            }
            let start = new_lits.len() as u32;
            new_lits.extend_from_slice(&self.lits[h.start as usize..(h.start + h.len) as usize]);
            remap[i] = Some(ClauseRef(new_headers.len() as u32));
            new_headers.push(ClauseHeader { start, ..h.clone() });
        }
        self.headers = new_headers;
        self.lits = new_lits;
        self.wasted = 0;
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::new(Var::from_index(i), pos)
    }

    #[test]
    fn add_and_read_back() {
        let mut db = ClauseDb::new();
        assert!(db.is_empty());
        let c1 = db.add(&[lit(0, true), lit(1, false)], false);
        assert!(!db.is_empty());
        assert_eq!(db.len(), 1);
        let c2 = db.add(&[lit(2, true), lit(0, false), lit(1, true)], true);
        assert_eq!(db.lits(c1), &[lit(0, true), lit(1, false)]);
        assert_eq!(db.lits(c2).len(), 3);
        assert!(!db.is_learnt(c1));
        assert!(db.is_learnt(c2));
        assert_eq!(db.num_original(), 1);
        assert_eq!(db.num_learnt(), 1);
    }

    #[test]
    fn delete_is_idempotent_and_counted() {
        let mut db = ClauseDb::new();
        let c1 = db.add(&[lit(0, true), lit(1, true)], true);
        db.delete(c1);
        db.delete(c1);
        assert!(db.is_deleted(c1));
        assert_eq!(db.num_learnt(), 0);
        assert_eq!(db.num_live(), 0);
    }

    #[test]
    fn compaction_remaps_surviving_clauses() {
        let mut db = ClauseDb::new();
        let c1 = db.add(&[lit(0, true), lit(1, true)], false);
        let c2 = db.add(&[lit(2, true), lit(3, true)], true);
        let c3 = db.add(&[lit(4, true), lit(5, true)], false);
        db.delete(c2);
        let remap = db.compact();
        assert_eq!(remap[c1.0 as usize], Some(ClauseRef(0)));
        assert_eq!(remap[c2.0 as usize], None);
        let new_c3 = remap[c3.0 as usize].unwrap();
        assert_eq!(db.lits(new_c3), &[lit(4, true), lit(5, true)]);
        assert_eq!(db.num_live(), 2);
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = ClauseDb::new();
        let c = db.add(&[lit(0, true), lit(1, true)], true);
        assert!(!db.bump_activity(c, 1.0));
        assert!(db.bump_activity(c, 2e100));
        db.rescale_activities(1e100);
        assert!(db.activity(c) < 1.0e10);
    }

    #[test]
    fn lbd_roundtrip() {
        let mut db = ClauseDb::new();
        let c = db.add(&[lit(0, true), lit(1, true), lit(2, true)], true);
        assert_eq!(db.lbd(c), 3);
        db.set_lbd(c, 2);
        assert_eq!(db.lbd(c), 2);
    }
}
