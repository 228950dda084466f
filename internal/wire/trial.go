package wire

// Canonical trial-evaluation formulas shared by the from-scratch Evaluator
// and the Incremental evaluator.
//
// A trial asks: "what would this net's length be if one (or two) cells were
// moved to candidate positions?" The answer is computed from the net's
// remaining pins — the stored multiset — plus up to two candidate points
// that are never materialized into the multiset.
//
// Floating-point addition is not associative, so the trial length of the
// same pin set can differ in the last ulp depending on the order terms are
// summed. Both evaluators therefore compute trials through the SAME
// formulas below, over the SAME sorted value sequences, which makes the two
// paths bitwise identical: the equivalence tests (and the Type I / parallel
// TS trajectory invariants) rely on exact equality, not tolerances.
//
// The formulas are O(log p) in the stored pin count p:
//
//	up to 3 pins: bounding box of stored extremes and candidates.
//	more pins:    trunk span from the extremes; branch sum around the
//	              merged median via prefix sums (branchSum); candidate
//	              branches added last, in candidate order.
//
// Prefix sums are always produced by a fresh left-to-right accumulation
// over the sorted values (see refreshPrefix and prefixInto), so
// any two evaluators holding the same coordinates hold bitwise-identical
// prefix arrays regardless of the edit history that produced them.

// hpwlTrial returns the half-perimeter of the stored sorted values plus
// candidate points. xs/ys are ascending; cx/cy hold 0-2 candidates (equal
// length). Returns 0 when fewer than two points exist in total.
func hpwlTrial(xs, ys, cx, cy []float64) float64 {
	if len(xs)+len(cx) < 2 {
		return 0
	}
	return spanTrial(xs, cx) + spanTrial(ys, cy)
}

// spanTrial returns max-min over a sorted slice merged with candidates.
func spanTrial(v, cands []float64) float64 {
	var lo, hi float64
	if len(v) > 0 {
		lo, hi = v[0], v[len(v)-1]
	} else {
		lo, hi = cands[0], cands[0]
	}
	for _, c := range cands {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return hi - lo
}

// steinerTrial returns the single-trunk Steiner trial length over the
// stored sorted values (with prefix sums) plus candidates. Degenerates to
// HPWL for up to three total pins, exactly like Evaluator.lengthOf.
func steinerTrial(xs, xp, ys, yp, cx, cy []float64) float64 {
	m := len(xs) + len(cx)
	if m < 2 {
		return 0
	}
	if m <= 3 {
		return hpwlTrial(xs, ys, cx, cy)
	}
	h := trunkTrial(xs, cx, ys, yp, cy)
	v := trunkTrial(ys, cy, xs, xp, cx)
	if v < h {
		return v
	}
	return h
}

// trunkTrial computes the trial trunk length with the trunk along the
// first axis: the merged along-axis span plus a branch from every across
// coordinate to the merged median. Stored branches are summed through
// branchSum with candidate branches added in candidate order; the span is
// added last so the branch total is a self-contained term (the TrialSet
// scan computes it once per row it enters).
func trunkTrial(along, alongC, across, acrossP, acrossC []float64) float64 {
	med := mergedMedian(across, acrossC)
	sum := branchSum(across, acrossP, med)
	for _, c := range acrossC {
		if c > med {
			sum += c - med
		} else {
			sum += med - c
		}
	}
	return spanTrial(along, alongC) + sum
}

// branchSum returns Σ|v_i − med| over the sorted values v with prefix sums
// p (p[i] = v[0]+…+v[i−1], accumulated left to right; len(p) = len(v)+1).
func branchSum(v, p []float64, med float64) float64 {
	return branchSumAt(v, p, med, searchF64(v, med))
}

// branchSumAt is branchSum with the split index — the first index holding
// a value >= med — already known. TrialSet resolves it from precomputed
// anchors instead of a per-trial binary search.
func branchSumAt(v, p []float64, med float64, i int) float64 {
	n := len(v)
	left := med*float64(i) - p[i]
	right := (p[n] - p[i]) - med*float64(n-i)
	// The prefix-sum form rounds at the magnitude of the values, so when
	// they all coincide far from the origin it can land a hair below 0.
	// Clamping keeps every trial length nonnegative, which the bounded
	// scans' prefix bail (cost >= bound) relies on.
	if s := left + right; s > 0 {
		return s
	}
	return 0
}

// bboxPlus1 returns the half-perimeter of stored bounds extended by one
// candidate point — value-identical to hpwlTrial with one candidate.
func bboxPlus1(minX, maxX, minY, maxY, x, y float64) float64 {
	if x < minX {
		minX = x
	}
	if x > maxX {
		maxX = x
	}
	if y < minY {
		minY = y
	}
	if y > maxY {
		maxY = y
	}
	return (maxX - minX) + (maxY - minY)
}

// steinerTrial1 is the single-candidate specialization of steinerTrial for
// nets with at least three stored pins (total pins >= 4). It computes
// bitwise the same value: the merged median of "sorted values plus one
// point" reduces to a clamp between two middle anchors (mergedAt1), so no
// median binary search is needed — only branchSum's.
func steinerTrial1(xv, xp, yv, yp []float64, x, y float64) float64 {
	h := trunkTrial1(xv, x, yv, yp, y)
	v := trunkTrial1(yv, y, xv, xp, x)
	if v < h {
		return v
	}
	return h
}

func trunkTrial1(along []float64, ac float64, across, acrossP []float64, cc float64) float64 {
	minA, maxA := along[0], along[len(along)-1]
	if ac < minA {
		minA = ac
	}
	if ac > maxA {
		maxA = ac
	}
	med := medianPlus1(across, cc)
	sum := branchSum(across, acrossP, med)
	if cc > med {
		sum += cc - med
	} else {
		sum += med - cc
	}
	return (maxA - minA) + sum
}

// medianPlus1 returns the median of the sorted values v plus one extra
// value c — the same value mergedMedian produces for one candidate.
func medianPlus1(v []float64, c float64) float64 {
	m := len(v) + 1
	if m%2 == 1 {
		return mergedAt1(v, c, m/2)
	}
	j := m / 2
	return (mergedAt1(v, c, j-1) + mergedAt1(v, c, j)) / 2
}

// mergedAt1 returns element i of the sorted slice v virtually merged with
// one value c: clamp(c, v[i-1], v[i]) with out-of-range anchors treated as
// ±inf. Equivalent to mergedAt with one candidate — inserting c at its
// lower bound means position i holds v[i] when c sorts above it, v[i-1]
// when c sorts below, and c itself in between.
func mergedAt1(v []float64, c float64, i int) float64 {
	if i > 0 && c < v[i-1] {
		return v[i-1]
	}
	if i < len(v) && c > v[i] {
		return v[i]
	}
	return c
}

// mergedMedian returns the median of the sorted values v merged with 0-2
// candidate points, using the same even/odd averaging as wire.median.
func mergedMedian(v, cands []float64) float64 {
	m := len(v) + len(cands)
	var c0, c1 float64
	switch len(cands) {
	case 0:
		// mergedAt reads only v.
	case 1:
		c0, c1 = cands[0], cands[0]
	default:
		c0, c1 = cands[0], cands[1]
		if c1 < c0 {
			c0, c1 = c1, c0
		}
	}
	if m%2 == 1 {
		return mergedAt(v, c0, c1, len(cands), m/2)
	}
	return (mergedAt(v, c0, c1, len(cands), m/2-1) + mergedAt(v, c0, c1, len(cands), m/2)) / 2
}

// mergedAt returns element i of the sorted slice v virtually merged with k
// candidates c0 <= c1. Candidates are placed at their lower-bound insertion
// positions; among equal values the choice is irrelevant because equal
// values are interchangeable.
func mergedAt(v []float64, c0, c1 float64, k, i int) float64 {
	if k == 0 {
		return v[i]
	}
	p0 := searchF64(v, c0)
	if i < p0 {
		return v[i]
	}
	if i == p0 {
		return c0
	}
	if k == 1 {
		return v[i-1]
	}
	p1 := searchF64(v, c1) + 1 // c1 lands after c0's slot
	if i < p1 {
		return v[i-1]
	}
	if i == p1 {
		return c1
	}
	return v[i-2]
}
