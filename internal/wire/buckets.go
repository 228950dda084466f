package wire

// VacancyBuckets shards a vacancy pool by row, keeping each row's free
// vacancies x-sorted so ScanBestRows can seed near a cell's anchor and
// walk outward instead of visiting the whole free list in index order.
//
// The per-row ordering is built once per allocation pass (the vacancy set
// is fixed after capture). Each row region is kept dense: its free
// vacancies fill the prefix [start[r], start[r]+rowN[r]) in x order, and
// Commit moves the taken vacancy behind that prefix by shifting the rest
// of the row left — O(row length), noise against the trial scans the
// buckets accelerate, and it leaves the walk with no dead entries to step
// over.
//
// Not safe for concurrent use.
type VacancyBuckets struct {
	order []int32   // vacancy indices grouped by row; each row's live prefix x-ascending (ties: ascending index)
	xs    []float64 // xs[p] = vacancy order[p]'s x (hoisted for the seek/walk)
	pos   []int32   // per vacancy: its position in order
	rowAt []int32   // per position: the row (inverse of the region table)
	start []int32   // per row: region start in order; len rows+1
	rowN  []int32   // per row: live count, the length of the region's live prefix
}

// Build sorts the vacancy pool into per-row x-ascending buckets and marks
// every vacancy live. Rows must cover every Vacancy.Row value.
func (b *VacancyBuckets) Build(vacs []Vacancy, rows int) {
	n := len(vacs)
	b.order = resizeI32s(b.order, n)
	b.xs = resizeFloats(b.xs, n)
	b.pos = resizeI32s(b.pos, n)
	b.rowAt = resizeI32s(b.rowAt, n)
	b.start = resizeI32s(b.start, rows+1)
	b.rowN = resizeI32s(b.rowN, rows)

	// Counting sort by row. rowN doubles as the per-row fill cursor — the
	// second pass leaves it back at the per-row counts.
	for r := range b.rowN {
		b.rowN[r] = 0
	}
	for i := range vacs {
		b.rowN[vacs[i].Row]++
	}
	acc := int32(0)
	for r := 0; r < rows; r++ {
		b.start[r] = acc
		acc += b.rowN[r]
		b.rowN[r] = 0
	}
	b.start[rows] = acc
	for i := range vacs {
		r := vacs[i].Row
		b.order[b.start[r]+b.rowN[r]] = int32(i)
		b.rowN[r]++
	}
	// Then x within each row. Regions are small (the pool splits across
	// all rows), so an allocation-free insertion sort beats sort.Slice.
	for r := 0; r < rows; r++ {
		lo, hi := int(b.start[r]), int(b.start[r+1])
		region := b.order[lo:hi]
		for i := 1; i < len(region); i++ {
			v := region[i]
			x := vacs[v].X
			j := i - 1
			for j >= 0 && (vacs[region[j]].X > x || (vacs[region[j]].X == x && region[j] > v)) {
				region[j+1] = region[j]
				j--
			}
			region[j+1] = v
		}
		for p := lo; p < hi; p++ {
			b.rowAt[p] = int32(r)
		}
	}
	for p, v := range b.order {
		b.pos[v] = int32(p)
		b.xs[p] = vacs[v].X
	}
}

// Commit marks vacancy v occupied: it leaves its row's live prefix, whose
// remaining entries shift left to stay dense and x-sorted. Committing an
// already-occupied vacancy is a no-op.
func (b *VacancyBuckets) Commit(v int32) {
	p := b.pos[v]
	r := b.rowAt[p]
	end := b.start[r] + b.rowN[r] // one past the live prefix
	if p >= end {
		return
	}
	x := b.xs[p]
	for q := p; q+1 < end; q++ {
		u := b.order[q+1]
		b.order[q], b.xs[q] = u, b.xs[q+1]
		b.pos[u] = q
	}
	b.order[end-1], b.xs[end-1] = v, x
	b.pos[v] = end - 1
	b.rowN[r]--
}

// RowLive returns the number of free vacancies in one row.
func (b *VacancyBuckets) RowLive(row int) int { return int(b.rowN[row]) }

// liveSpan returns the position range [lo, hi) of one row's free vacancies.
func (b *VacancyBuckets) liveSpan(row int) (lo, hi int) {
	lo = int(b.start[row])
	return lo, lo + int(b.rowN[row])
}

// SeekGE returns the first position among row's free vacancies whose x is
// >= x (the end of the live prefix when every free vacancy sits left of x).
func (b *VacancyBuckets) SeekGE(row int, x float64) int {
	lo, hi := b.liveSpan(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func resizeI32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
