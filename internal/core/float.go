package core

import "math"

// FloatEqTolerance is the default tolerance of FloatEq: two values within
// 1e-9, scaled by their magnitude above 1, are considered equal. Revenue
// sums and reliability products accumulate rounding error on the order of
// a few ulps per operation; 1e-9 absorbs any realistic accumulation over
// the admission pipeline (millions of additions of O(1) payments) while
// staying far below the smallest meaningful payment or probability
// difference in the paper's workloads. The root TestNoFloatEquality
// steers every ==/!= on such values here.
const FloatEqTolerance = 1e-9

// FloatEq reports whether a and b are equal within FloatEqTolerance,
// relative to their magnitude: |a-b| ≤ tol·max(1, |a|, |b|). NaN equals
// nothing; infinities are equal only to themselves.
func FloatEq(a, b float64) bool {
	return FloatEqScaled(a, b, FloatEqTolerance)
}

// FloatEqTol reports whether |a-b| ≤ tol — a plain absolute tolerance for
// call sites that know their error scale (for example dual-price checks
// at 1e-12). NaN equals nothing; equal infinities compare equal.
func FloatEqTol(a, b, tol float64) bool {
	if a == b { // fast path; also handles equal infinities
		return true
	}
	return math.Abs(a-b) <= tol
}

// FloatEqScaled is FloatEq with an explicit relative tolerance.
func FloatEqScaled(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// An infinite scale would make Inf ≤ tol·Inf hold against any
		// finite value; unequal infinities equal nothing.
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}
