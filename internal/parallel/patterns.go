// Package parallel implements the paper's three SimE parallelization
// strategies on the virtual-time cluster of internal/mpi:
//
//	Type I   — low-level parallelism: goodness evaluation is distributed
//	           over all ranks; the master performs selection and allocation.
//	           The search trajectory is identical to the serial engine.
//	Type II  — domain decomposition: placement rows are partitioned among
//	           ranks and every SimE operator (including allocation) runs on
//	           the local rows; the master merges and re-partitions each
//	           iteration. Fixed and random row patterns are provided.
//	Type III — parallel searches: independent SimE threads share a central
//	           best-solution store and consult it after a retry threshold
//	           of unproductive iterations.
package parallel

import (
	"fmt"

	"simevo/internal/rng"
)

// RowPattern assigns placement rows to ranks for one Type II iteration.
type RowPattern interface {
	// Assign returns a partition of rows [0, numRows) into ranks slices;
	// every row appears in exactly one slice and every slice is non-empty
	// (numRows >= ranks is required).
	Assign(iter, numRows, ranks int) [][]int
	Name() string
}

// FixedPattern is the Kling-Banerjee alternating row allocation the paper
// cites from [5]: in even iterations slave j receives a contiguous slice of
// K/m rows; in odd iterations it receives the strided set j, j+m, j+2m, ...
// With this pair of assignments a cell can reach any grid position in at
// most two iterations.
type FixedPattern struct{}

// Name implements RowPattern.
func (FixedPattern) Name() string { return "fixed" }

// Assign implements RowPattern.
func (FixedPattern) Assign(iter, numRows, ranks int) [][]int {
	out := make([][]int, ranks)
	if iter%2 == 0 {
		// Contiguous blocks of ~K/m rows.
		for j := 0; j < ranks; j++ {
			lo := j * numRows / ranks
			hi := (j + 1) * numRows / ranks
			for r := lo; r < hi; r++ {
				out[j] = append(out[j], r)
			}
		}
		return out
	}
	// Strided: slave j gets rows j, j+m, j+2m, ...
	for r := 0; r < numRows; r++ {
		out[r%ranks] = append(out[r%ranks], r)
	}
	return out
}

// RandomPattern deals a fresh random permutation of the rows into
// contiguous groups every iteration — the random row allocation of the
// authors' earlier work [7], which the paper finds gives better speedups
// and qualities than the fixed pattern.
type RandomPattern struct {
	rnd *rng.R
}

// NewRandomPattern creates the pattern with its own deterministic stream.
func NewRandomPattern(seed uint64) *RandomPattern {
	return &RandomPattern{rnd: rng.NewStream(seed, 0x70a77e24)}
}

// Name implements RowPattern.
func (*RandomPattern) Name() string { return "random" }

// Assign implements RowPattern.
func (p *RandomPattern) Assign(iter, numRows, ranks int) [][]int {
	perm := p.rnd.Perm(numRows)
	out := make([][]int, ranks)
	for j := 0; j < ranks; j++ {
		lo := j * numRows / ranks
		hi := (j + 1) * numRows / ranks
		out[j] = append(out[j], perm[lo:hi]...)
	}
	return out
}

// validatePattern checks what a row pattern's assignment must satisfy: the
// partition property (validateAssignment), with at least one row for every
// rank. The master checks each pattern's assignment with it.
func validatePattern(assign [][]int, numRows int) error {
	if err := validateAssignment(assign, numRows); err != nil {
		return err
	}
	for j, rows := range assign {
		if len(rows) == 0 {
			return fmt.Errorf("parallel: rank %d received no rows", j)
		}
	}
	return nil
}

// validateAssignment checks the partition property: every row index lies
// in [0, numRows) and belongs to exactly one rank. A rank may hold no rows:
// the degraded master moves a failed rank's share onto the survivors, so
// every slave checks the assignment it decodes from the broadcast with
// this, not with validatePattern, before using it.
func validateAssignment(assign [][]int, numRows int) error {
	seen := make([]bool, numRows)
	count := 0
	for _, rows := range assign {
		for _, r := range rows {
			if r < 0 || r >= numRows {
				return fmt.Errorf("parallel: row %d out of range", r)
			}
			if seen[r] {
				return fmt.Errorf("parallel: row %d assigned twice", r)
			}
			seen[r] = true
			count++
		}
	}
	if count != numRows {
		return fmt.Errorf("parallel: %d of %d rows assigned", count, numRows)
	}
	return nil
}
