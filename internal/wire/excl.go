package wire

import "sort"

// Canonical excluding-length formulas shared by the from-scratch Evaluator
// and the Incremental engine.
//
// The goodness measure asks, per cell and net: "what would this net cost
// without the cell's pins?" — the basis of the O_i lower bound. Like the
// trial formulas (trial.go), both evaluation modes answer it through the
// SAME arithmetic over the SAME sorted value sequences so the two paths are
// bitwise identical: the full sorted pin multiset with its left-to-right
// prefix sums, plus the excluded cell's coordinate and pin multiplicity k.
// The excluded pins are never materialized out of the arrays; their
// contributions are removed by counted subtraction.
//
// The spans need no positions: two comparisons tell whether the excluded
// entries sit at an end of the sorted axis. The Steiner medians and branch
// sums need the excluded entries' position in each sorted axis, which the
// callers supply. The Evaluator searches for them in its freshly sorted
// copy. The Incremental engine ranks the pins of a net once while Rebuild
// refills the net's sorted arrays (refresh, incremental.go) and evaluates
// the exclusion of every requested cell on the net in that same visit, so
// a net of p pins costs one O(p log p) ranking instead of two searches per
// excluded cell. Only a net visited without a refill is searched: one
// relengthed after per-pin edits, or one visited for newly requested cells
// (Exclusions).

// searchF64 returns the first index i with v[i] >= x — sort.SearchFloat64s
// semantics. Placement nets are small, so a linear scan beats the binary
// search's branch mispredictions and call overhead on the common sizes;
// past the cutoff it defers to the stdlib. The returned index is identical
// either way, so every consumer stays bitwise deterministic.
func searchF64(v []float64, x float64) int {
	if len(v) <= 24 {
		for i, e := range v {
			if e >= x {
				return i
			}
		}
		return len(v)
	}
	return sort.SearchFloat64s(v, x)
}

// exclSpan returns min and max of the sorted values v after removing k
// entries of value rv, which v holds. The removed entries sit at rv's
// lower-bound position lo: they take the minimum's place when lo == 0,
// which holds iff v[0] == rv, and the maximum's place when lo+k == n, which
// holds iff v[n-k-1] < rv. The caller guarantees len(v)-k >= 1.
func exclSpan(v []float64, rv float64, k int) (min, max float64) {
	n := len(v)
	if v[0] == rv {
		min = v[k]
	} else {
		min = v[0]
	}
	if v[n-k-1] < rv {
		max = v[n-k-1]
	} else {
		max = v[n-1]
	}
	return min, max
}

// hpwlExcl returns the half-perimeter of the pins excluding k entries at
// (rx, ry). The caller guarantees at least two pins remain.
func hpwlExcl(xv, yv []float64, rx, ry float64, k int) float64 {
	minX, maxX := exclSpan(xv, rx, k)
	minY, maxY := exclSpan(yv, ry, k)
	return (maxX - minX) + (maxY - minY)
}

// exclIdx returns the index in v of element j of the sorted slice with the
// k entries at index range [lo, lo+k) virtually removed.
func exclIdx(lo, k, j int) int {
	if j >= lo {
		j += k
	}
	return j
}

// exclMedian returns the median of the remaining values, with the same
// even/odd averaging as wire.median, plus the index in v of the upper
// middle value, the greatest remaining value the median can equal.
func exclMedian(v []float64, lo, k int) (med float64, hi int) {
	m := len(v) - k
	hi = exclIdx(lo, k, m/2)
	if m%2 == 1 {
		return v[hi], hi
	}
	return (v[exclIdx(lo, k, m/2-1)] + v[hi]) / 2, hi
}

// lowerFrom returns the first index i with v[i] >= x — searchF64(v, x) —
// given a hint j with v[j] >= x: it walks down from j over the entries
// that are still >= x. From the median's upper middle value that walk
// crosses at most the removed entries and the median's duplicates.
func lowerFrom(v []float64, j int, x float64) int {
	if v[j] < x {
		return searchF64(v, x) // the mean of two values overflowed
	}
	for j > 0 && v[j-1] >= x {
		j--
	}
	return j
}

// exclBranchSum returns Σ|v_i − med| over the remaining values, using the
// full array's prefix sums with the removed entries' contributions
// subtracted by count: rb of the k removed entries (all of value rv) sit
// below the split i, the first stored value >= med. Mirrors branchSumAt's
// left + right decomposition.
func exclBranchSum(v, p []float64, rv float64, lo, k int, med float64, i int) float64 {
	rb := i - lo
	if rb < 0 {
		rb = 0
	}
	if rb > k {
		rb = k
	}
	n := len(v)
	cntL := i - rb
	sumL := p[i] - float64(rb)*rv
	cntR := (n - i) - (k - rb)
	sumR := (p[n] - p[i]) - float64(k-rb)*rv
	left := med*float64(cntL) - sumL
	right := sumR - med*float64(cntR)
	return left + right
}

// trunkExcl computes the single-trunk length of the remaining pins with the
// trunk along the first axis: remaining along-span plus a branch from every
// remaining across-coordinate to the remaining median. cLo is the excluded
// entries' lower-bound position in the sorted across axis. Shapes the sum
// like trunkTrial: span first, then the branch total.
func trunkExcl(along []float64, rAlong float64, across, acrossP []float64, rAcross float64, cLo, k int) float64 {
	minA, maxA := exclSpan(along, rAlong, k)
	med, hi := exclMedian(across, cLo, k)
	split := lowerFrom(across, hi, med)
	return (maxA - minA) + exclBranchSum(across, acrossP, rAcross, cLo, k, med, split)
}

// steinerExcl returns the single-trunk Steiner length of the pins excluding
// k entries at (rx, ry), whose values start at sorted positions xLo and
// yLo, taking the cheaper trunk orientation exactly like lengthOf and
// steinerTrial. The caller guarantees more than three pins remain (fewer
// degenerate to hpwlExcl).
func steinerExcl(xv, xp, yv, yp []float64, rx, ry float64, xLo, yLo, k int) float64 {
	h := trunkExcl(xv, rx, yv, yp, ry, yLo, k)
	v := trunkExcl(yv, ry, xv, xp, rx, xLo, k)
	if v < h {
		return v
	}
	return h
}
