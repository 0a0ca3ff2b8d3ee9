//! Variables, literals, and the three-valued assignment domain.
//!
//! The representation follows the classic MiniSat packing: a variable is a
//! dense non-negative index, and a literal packs the variable index together
//! with its sign into a single `u32` (`2 * var + sign`). This keeps watch
//! lists, assignment vectors, and activity tables directly indexable.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense index starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from its dense index.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        debug_assert!(index < (u32::MAX / 2) as usize, "variable index overflow");
        Var(index as u32)
    }

    /// Returns the dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// Returns the negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `2 * var + (positive ? 1 : 0)` so that negation is a single
/// XOR and literals index watch lists densely.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Creates a literal over `var` with the given polarity
    /// (`true` = positive occurrence).
    #[inline]
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(positive))
    }

    /// Returns the underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is a positive literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns `true` if this is a negative literal.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns the dense code of this literal (usable as a watch-list index).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Converts from DIMACS convention: non-zero integer, sign = polarity,
    /// magnitude = 1-based variable index.
    pub fn from_dimacs(value: i64) -> Option<Lit> {
        if value == 0 || value.unsigned_abs() > (u32::MAX / 2) as u64 {
            return None;
        }
        let var = Var(value.unsigned_abs() as u32 - 1);
        Some(Lit::new(var, value > 0))
    }

    /// Converts to the DIMACS integer convention.
    pub fn to_dimacs(self) -> i64 {
        let magnitude = i64::from(self.var().0) + 1;
        if self.is_positive() {
            magnitude
        } else {
            -magnitude
        }
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{:?}",
            if self.is_positive() { "" } else { "!" },
            self.var()
        )
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// Three-valued truth assignment: true, false, or unassigned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not yet assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts a concrete Boolean.
    #[inline]
    pub fn from_bool(value: bool) -> LBool {
        if value {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Returns `true` iff assigned (either polarity).
    #[inline]
    pub fn is_assigned(self) -> bool {
        !matches!(self, LBool::Undef)
    }

    /// Returns the concrete Boolean, or `None` when unassigned.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Negation preserving `Undef`.
    #[inline]
    pub fn negate(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// Applies a literal's polarity: the value of literal `l` given its
    /// variable's value `self`.
    #[inline]
    pub fn under_polarity(self, positive: bool) -> LBool {
        if positive {
            self
        } else {
            self.negate()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_roundtrip() {
        for index in [0usize, 1, 2, 17, 1000] {
            let v = Var::from_index(index);
            assert_eq!(v.index(), index);
            let pos = v.positive();
            let neg = v.negative();
            assert_eq!(pos.var(), v);
            assert_eq!(neg.var(), v);
            assert!(pos.is_positive());
            assert!(neg.is_negative());
            assert_eq!(!pos, neg);
            assert_eq!(!neg, pos);
            assert_eq!(Lit::from_code(pos.code()), pos);
        }
    }

    #[test]
    fn dimacs_conversion() {
        let l = Lit::from_dimacs(5).unwrap();
        assert_eq!(l.var().index(), 4);
        assert!(l.is_positive());
        assert_eq!(l.to_dimacs(), 5);

        let l = Lit::from_dimacs(-3).unwrap();
        assert_eq!(l.var().index(), 2);
        assert!(l.is_negative());
        assert_eq!(l.to_dimacs(), -3);

        assert_eq!(Lit::from_dimacs(0), None);
    }

    #[test]
    fn lbool_algebra() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::from_bool(false), LBool::False);
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::True.under_polarity(false), LBool::False);
        assert_eq!(LBool::Undef.under_polarity(true), LBool::Undef);
        assert!(LBool::True.is_assigned());
        assert!(!LBool::Undef.is_assigned());
        assert_eq!(LBool::False.to_bool(), Some(false));
        assert_eq!(LBool::Undef.to_bool(), None);
    }

    #[test]
    fn display_uses_dimacs_convention() {
        let v = Var::from_index(0);
        assert_eq!(v.positive().to_string(), "1");
        assert_eq!(v.negative().to_string(), "-1");
    }
}
