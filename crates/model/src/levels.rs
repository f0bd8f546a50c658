//! Resource levels (paper §3.1).
//!
//! A [`LevelSpec`] partitions `[0, ∞)` into half-open intervals
//! `[0, c_1), [c_1, c_2), …, [c_k, ∞)` given `k` sorted cutpoints. Levels
//! discretize the otherwise-continuous resource variables so that leveled
//! actions can carry interval preconditions (the *optimistic resource map*)
//! and a lower-bound cost, enabling A*-style optimization in the presence of
//! non-reversible resource functions.

use crate::interval::{Interval, EPS};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Shave applied to finite upper bounds when a level interval is used as a
/// *requirement* (optimistic-map entry): levels are half-open `[c_i,
/// c_{i+1})`, so the cutpoint itself must not satisfy strict upper-bound
/// conditions. 1e-6 is far below any meaningful bandwidth/CPU quantum and
/// far above arithmetic noise ([`EPS`]).
pub const LEVEL_SHAVE: f64 = 1e-6;

/// A partition of `[0, ∞)` into consecutive half-open intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelSpec {
    cutpoints: Vec<f64>,
}

impl LevelSpec {
    /// Build from cutpoints. They are sorted, deduplicated (within
    /// [`EPS`]) and must all be strictly positive and finite.
    pub fn new(mut cutpoints: Vec<f64>) -> Result<Self, crate::error::ModelError> {
        // a total order, so a NaN sorts instead of panicking and is refused below
        cutpoints.sort_by(f64::total_cmp);
        cutpoints.dedup_by(|a, b| (*a - *b).abs() <= EPS);
        for &c in &cutpoints {
            if !(c.is_finite() && c > 0.0) {
                return Err(crate::error::ModelError::InvalidCutpoint(c));
            }
        }
        Ok(LevelSpec { cutpoints })
    }

    /// The trivial single-level spec `[0, ∞)` — what every resource gets
    /// when no levels are declared (paper scenario A).
    pub fn trivial() -> Self {
        LevelSpec { cutpoints: Vec::new() }
    }

    /// True iff this is the trivial single-level spec.
    pub fn is_trivial(&self) -> bool {
        self.cutpoints.is_empty()
    }

    /// Number of levels (`cutpoints + 1`).
    pub fn num_levels(&self) -> usize {
        self.cutpoints.len() + 1
    }

    /// The sorted cutpoints.
    pub fn cutpoints(&self) -> &[f64] {
        &self.cutpoints
    }

    /// The (closed-arithmetic) interval of level `idx`:
    /// `[c_idx, c_{idx+1}]` with `c_0 = 0` and `c_{k+1} = ∞`.
    ///
    /// Panics if `idx >= num_levels()`.
    pub fn interval(&self, idx: usize) -> Interval {
        assert!(idx < self.num_levels(), "level index {idx} out of range");
        let lo = if idx == 0 { 0.0 } else { self.cutpoints[idx - 1] };
        let hi = if idx == self.cutpoints.len() { f64::INFINITY } else { self.cutpoints[idx] };
        Interval::new(lo, hi)
    }

    /// The half-open *requirement* form of a level interval: finite upper
    /// bounds are shaved by [`LEVEL_SHAVE`] so that e.g. a client demanding
    /// `ibw >= 90` cannot be satisfied by the `[0, 90)` level (the paper's
    /// strict `m <= X < M` precondition semantics). The top level's `∞`
    /// bound is unaffected.
    pub fn requirement(&self, idx: usize) -> Interval {
        let iv = self.interval(idx);
        if iv.hi.is_finite() {
            Interval::new(iv.lo, iv.hi - LEVEL_SHAVE)
        } else {
            iv
        }
    }

    /// The level containing `x` under half-open semantics
    /// (`x == c_i` belongs to level `i`, the one *starting* at `c_i`).
    pub fn level_of(&self, x: f64) -> usize {
        debug_assert!(x >= -EPS, "levels are defined over [0, inf): {x}");
        // values within EPS of a cutpoint classify into the upper level —
        // computed values like 0.7·90 must land in the level that starts
        // at the (exactly snapped) cutpoint 63 despite float error
        self.cutpoints.partition_point(|&c| c <= x + EPS)
    }

    /// Highest level whose interval intersects `iv` (None if `iv` empty or
    /// entirely negative).
    pub fn highest_intersecting(&self, iv: &Interval) -> Option<usize> {
        if iv.is_empty() || iv.hi < 0.0 {
            return None;
        }
        Some(self.level_of(iv.hi.min(f64::MAX)))
    }

    /// All level indices whose interval intersects `iv`. Levels are
    /// consecutive, so they form a range (empty when `iv` is empty or
    /// entirely negative).
    pub fn intersecting(&self, iv: &Interval) -> Range<usize> {
        if iv.is_empty() || iv.hi < 0.0 {
            return 0..0;
        }
        let lo_lvl = self.level_of(iv.lo.max(0.0));
        let hi_lvl = self.level_of(iv.hi.min(f64::MAX));
        lo_lvl..hi_lvl + 1
    }

    /// Like [`Self::intersecting`], but treating `iv` as half-open
    /// `[lo, hi)`: a level whose interval only touches `iv` at exactly
    /// `iv.hi` is excluded. Used when classifying *computed* value ranges,
    /// which inherit half-open tops from the level intervals they were
    /// derived from (e.g. `0.7 · [90, 100)` should map to T-level
    /// `[63, 70)` only, not also to `[70, …)`).
    pub fn intersecting_half_open(&self, iv: &Interval) -> Range<usize> {
        if iv.is_empty() || iv.hi < 0.0 {
            return 0..0;
        }
        let lo_lvl = self.level_of(iv.lo.max(0.0));
        let mut hi_lvl = self.level_of(iv.hi.min(f64::MAX));
        if hi_lvl > lo_lvl && self.interval(hi_lvl).lo >= iv.hi - EPS {
            hi_lvl -= 1;
        }
        lo_lvl..hi_lvl + 1
    }

    /// A spec with every cutpoint multiplied by `factor` — used for
    /// "bandwidth levels of T, I, Z are proportional to those of M"
    /// (paper Table 1).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "scale factor must be positive");
        // Snap to a 1e-9 grid so that e.g. 90 · 0.7 classifies exactly as
        // the cutpoint 63 — boundary membership must be deterministic.
        let snap = |x: f64| (x * 1e9).round() / 1e9;
        LevelSpec { cutpoints: self.cutpoints.iter().map(|c| snap(c * factor)).collect() }
    }
}

impl Default for LevelSpec {
    fn default() -> Self {
        LevelSpec::trivial()
    }
}

impl fmt::Display for LevelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.num_levels() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let iv = self.interval(i);
            if iv.hi.is_finite() {
                write!(f, "[{}, {})", iv.lo, iv.hi)?;
            } else {
                write!(f, "[{}, ∞)", iv.lo)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 6 / scenario D spec for the M stream.
    fn scenario_d() -> LevelSpec {
        LevelSpec::new(vec![30.0, 70.0, 90.0, 100.0]).unwrap()
    }

    #[test]
    fn trivial_spec() {
        let t = LevelSpec::trivial();
        assert!(t.is_trivial());
        assert_eq!(t.num_levels(), 1);
        assert_eq!(t.interval(0), Interval::nonneg());
        assert_eq!(t.level_of(1234.5), 0);
    }

    #[test]
    fn scenario_d_intervals() {
        let s = scenario_d();
        assert_eq!(s.num_levels(), 5);
        assert_eq!(s.interval(0), Interval::new(0.0, 30.0));
        assert_eq!(s.interval(1), Interval::new(30.0, 70.0));
        assert_eq!(s.interval(2), Interval::new(70.0, 90.0));
        assert_eq!(s.interval(3), Interval::new(90.0, 100.0));
        assert_eq!(s.interval(4), Interval::new(100.0, f64::INFINITY));
    }

    #[test]
    fn level_of_half_open() {
        let s = scenario_d();
        assert_eq!(s.level_of(0.0), 0);
        assert_eq!(s.level_of(29.999), 0);
        assert_eq!(s.level_of(30.0), 1); // cutpoint belongs to upper level
        assert_eq!(s.level_of(89.999), 2);
        assert_eq!(s.level_of(90.0), 3);
        assert_eq!(s.level_of(100.0), 4);
        assert_eq!(s.level_of(200.0), 4);
    }

    #[test]
    fn sorting_and_dedup() {
        let s = LevelSpec::new(vec![100.0, 30.0, 70.0, 30.0]).unwrap();
        assert_eq!(s.cutpoints(), &[30.0, 70.0, 100.0]);
    }

    #[test]
    fn rejects_bad_cutpoints() {
        assert!(LevelSpec::new(vec![0.0]).is_err());
        assert!(LevelSpec::new(vec![-5.0]).is_err());
        assert!(LevelSpec::new(vec![f64::INFINITY]).is_err());
        assert!(LevelSpec::new(vec![30.0, f64::NAN, 70.0]).is_err());
    }

    #[test]
    fn scaled_matches_table1_note() {
        // T levels = 0.7 × M levels
        let m = scenario_d();
        let t = m.scaled(0.7);
        assert_eq!(t.cutpoints(), &[21.0, 49.0, 63.0, 70.0]);
        assert_eq!(t.level_of(63.0), 3);
    }

    #[test]
    fn intersecting_levels() {
        let s = scenario_d();
        assert_eq!(s.intersecting(&Interval::new(0.0, 70.0)).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(s.intersecting(&Interval::new(95.0, 95.0)).collect::<Vec<_>>(), vec![3]);
        assert_eq!(
            s.intersecting(&Interval::new(0.0, 200.0)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(s.intersecting(&Interval::empty()).is_empty());
        assert_eq!(s.highest_intersecting(&Interval::new(0.0, 200.0)), Some(4));
        assert_eq!(s.highest_intersecting(&Interval::new(0.0, 69.0)), Some(1));
        assert_eq!(s.highest_intersecting(&Interval::empty()), None);
    }

    #[test]
    fn half_open_intersection_excludes_touching_top() {
        let t = scenario_d().scaled(0.7); // cutpoints 21, 49, 63, 70
                                          // 0.7 · [90, 100) = [63, 70): only level 3
        assert_eq!(
            t.intersecting_half_open(&Interval::new(63.0, 70.0)).collect::<Vec<_>>(),
            vec![3]
        );
        // closed query would include level 4 too
        assert_eq!(t.intersecting(&Interval::new(63.0, 70.0)).collect::<Vec<_>>(), vec![3, 4]);
        // a range genuinely reaching past 70 keeps level 4
        assert_eq!(
            t.intersecting_half_open(&Interval::new(63.0, 71.0)).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // degenerate point at a cutpoint stays in its half-open home
        assert_eq!(t.intersecting_half_open(&Interval::point(70.0)).collect::<Vec<_>>(), vec![4]);
        assert!(t.intersecting_half_open(&Interval::empty()).is_empty());
    }

    #[test]
    fn interval_of_level_contains_levels_points() {
        let s = scenario_d();
        for x in [0.0, 15.0, 30.0, 50.0, 70.0, 89.0, 90.0, 99.0, 100.0, 1000.0] {
            let l = s.level_of(x);
            assert!(s.interval(l).contains(x), "{x} not in level {l}");
        }
    }

    #[test]
    fn display_matches_paper_form() {
        let s = LevelSpec::new(vec![100.0]).unwrap();
        assert_eq!(s.to_string(), "[0, 100), [100, ∞)");
    }
}
