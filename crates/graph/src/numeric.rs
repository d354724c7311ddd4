//! Shared floating-point tolerances for the whole workspace.
//!
//! Every crate that compares costs, capacities or LP feasibility used to
//! carry its own ad-hoc `1e-9` / `1e-6` literals; they are hoisted here so
//! a single definition governs validator slack, capacity-repair slack,
//! branch-and-bound incumbent acceptance and the service commit path.
//! Comparisons are magnitude-scaled: the slack for values around `x` is
//! `EPS * max(1, |x|)`, so large aggregate costs compare as sensibly as
//! unit-scale ones while small values keep the absolute `EPS` floor.

/// Baseline relative tolerance for cost and capacity comparisons.
pub const EPS: f64 = 1e-9;

/// Tolerance for MIP integrality and incumbent feasibility checks.
///
/// Looser than [`EPS`]: branch-and-bound accepts an incumbent when every
/// constraint holds within this slack after rounding, matching the scale
/// of simplex round-off on the tableaux this workspace solves.
pub const MIP_TOL: f64 = 1e-6;

/// Magnitude scale used by the relative comparisons below.
fn scale(a: f64, b: f64) -> f64 {
    1.0_f64.max(a.abs()).max(b.abs())
}

/// Returns `true` when two values are equal within [`EPS`] (scaled by
/// magnitude so large costs compare sensibly).
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * scale(a, b)
}

/// Returns `true` when `a <= b` within the scaled [`EPS`] slack — the
/// canonical "does this load fit this capacity" test.
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS * scale(a, b)
}

/// Returns `true` when `a` strictly exceeds `b` beyond the scaled slack
/// (the negation of [`approx_le`], named for call-site readability).
pub fn exceeds(a: f64, b: f64) -> bool {
    !approx_le(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1.0, 1.0 + 1e-10));
        assert!(!approx_eq(1.0, 1.0 + 1e-7));
        // At magnitude 1e6 the slack widens proportionally.
        assert!(approx_eq(1e6, 1e6 + 1e-4));
        assert!(!approx_eq(1e6, 1e6 + 1.0));
    }

    #[test]
    fn approx_le_accepts_hairline_overshoot_only() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0 + 1e-10, 1.0));
        assert!(!approx_le(1.0 + 1e-6, 1.0));
        assert!(approx_le(0.5, 1.0));
        assert!(exceeds(2.0, 1.0));
        assert!(!exceeds(1.0, 1.0));
    }

    #[test]
    fn tolerances_are_ordered() {
        const { assert!(EPS < MIP_TOL) };
    }
}
