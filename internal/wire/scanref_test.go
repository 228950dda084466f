package wire

// The flat vacancy scan. Production allocation runs the row-sharded
// ScanBestRows; this stays as its bitwise reference in the package tests.

// ScanBest is the flat reference scan ScanBestRows is pinned to. It scans
// the compiled cell over free[lo:hi] — the ascending indices of
// still-free vacancies — skipping width-infeasible rows, scoring the rest
// with the bounded early exit, and returning the first vacancy index
// holding the strictly smallest score (-1 if none is admissible under
// bound0). It scores each trial with the per-item lengths ScoreBounded
// uses, and the equivalence test pins it bitwise to a ScoreBounded loop.
// st (which may be nil) collects prune statistics with plain increments;
// it changes no comparison, so the winner and the trajectory are bitwise
// unaffected.
func (t *TrialSet) ScanBest(vacs []Vacancy, free []int32,
	rowOK []bool, lo, hi int, bound0 float64, st *ScanStats) (int, float64) {
	if st == nil {
		st = new(ScanStats)
	}
	best, bound := -1, bound0
	items := t.items
	// tail[i] = Σ_{j>=i} w_j · (storedSpan_j + e_j) lower-bounds the
	// weighted cost of items i.. for any candidate: every trial with stored
	// pins is at least the stored pins' half-perimeter, a trunk's by
	// min(eX, eY) more — an excess
	// that carries the trunk's rounding allowance, so it may be slightly
	// negative; empty nets contribute 0.
	tail := make([]float64, len(items)+1)
	for i := len(items) - 1; i >= 0; i-- {
		tail[i] = tail[i+1]
		if it := &items[i]; it.kind != trialZero {
			tail[i] += ((it.maxX - it.minX) + (it.maxY - it.minY) + trunkExcess(it)) * it.w
		}
	}
	// Bbox pre-check on the leading net: any trial with stored pins —
	// bbox or trunk — is bounded below by the half-perimeter of the
	// stored pins extended by the candidate (a trunk's plus its excess, as
	// in tail), and items 1.. are bounded below by tail[1]. When even that sum reaches the current bound the
	// vacancy is skipped before any full evaluation. Pruned vacancies are
	// exactly ones the bounded scan would have discarded (their true cost
	// is >= the bound), so the winner — and the trajectory — is untouched.
	prune := false
	var pruneW, pruneE, tail1, minX0, maxX0, minY0, maxY0 float64
	if len(items) > 0 && items[0].kind != trialZero {
		it := &items[0]
		prune, pruneW, pruneE, tail1 = true, it.w, trunkExcess(it), tail[1]
		minX0, maxX0, minY0, maxY0 = it.minX, it.maxX, it.minY, it.maxY
	}
scan:
	for _, v32 := range free[lo:hi] {
		v := int(v32)
		row := vacs[v].Row
		if !rowOK[row] {
			continue
		}
		x, y := vacs[v].X, vacs[v].Y
		st.Vacancies++
		if prune {
			lox, hix, loy, hiy := minX0, maxX0, minY0, maxY0
			if x < lox {
				lox = x
			}
			if x > hix {
				hix = x
			}
			if y < loy {
				loy = y
			}
			if y > hiy {
				hiy = y
			}
			if (((hix-lox)+(hiy-loy)+pruneE)*pruneW+tail1)*scanSlack >= bound {
				st.PrunedBBox++
				continue
			}
		}
		cost := 0.0
		for i := range items {
			it := &items[i]
			switch it.kind {
			case trialBBox:
				cost += bboxPlus1(it.minX, it.maxX, it.minY, it.maxY, x, y) * it.w
			case trialTrunk:
				yBranch, ySpan := it.yHalf(y)
				cost += it.trunkLen(x, yBranch, ySpan) * it.w
			case trialZero:
				// Falls through to the bound check: a trailing zero
				// record at cost == bound is a tie and must not reach
				// the winner assignment (first minimum wins).
			}
			// Bail as soon as the partial cost plus the remaining items'
			// stored-span floor reaches the bound: the full cost could
			// only be larger, so only non-winners are dropped (and a tie
			// at the bound never wins — first minimum stays). The
			// estimate is deflated by scanSlack so float reassociation
			// can never prune a true sub-bound cost; the exact prefix
			// check keeps the common case (cost alone already past the
			// bound) at full strength.
			if cost >= bound {
				st.BailedExact++
				continue scan
			}
			if (cost+tail[i+1])*scanSlack >= bound {
				st.PrunedSuffix++
				continue scan
			}
		}
		st.Scored++
		if cost < bound { // unconditional first-minimum, even for an empty set
			best, bound = v, cost
		}
	}
	return best, bound
}

// trunkExcess is min(eX, eY) for a trunk item and 0 for any other.
func trunkExcess(it *compiledTrial) float64 {
	if it.kind != trialTrunk {
		return 0
	}
	return min(it.ex, it.ey)
}
