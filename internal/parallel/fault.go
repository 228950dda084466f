package parallel

import (
	"fmt"
	"sort"

	"simevo/internal/mpi"
	"simevo/internal/transport"
)

// FaultComm is rank 0's handle as the masters and the Type III store use
// it: Comm plus non-panicking send/receive variants that attribute
// failures to ranks, root-half collectives that skip dead ranks, and
// expulsion of ranks whose frames arrive corrupt. The TCP transport.Group
// degrades on a lost rank; the simulated *mpi.Comm cannot lose one, so
// there each call is the plain primitive and DropRank fails the run. Both
// run the same master code.
type FaultComm interface {
	Comm
	TrySend(dst, tag int, data []byte) error
	TryRecv(src, tag int) ([]byte, mpi.Status, error)
	BcastRoot(data []byte)
	GatherRoot(own []byte) [][]byte
	DropRank(rank int, err error)
	FailedRanks() map[int]error
}

var (
	_ FaultComm = (*transport.Group)(nil)
	_ FaultComm = (*mpi.Comm)(nil)
)

// rootComm returns rank 0's FaultComm view of c.
func rootComm(c Comm) (FaultComm, error) {
	fc, ok := c.(FaultComm)
	if !ok {
		return nil, fmt.Errorf("parallel: rank 0 transport %T does not implement FaultComm", c)
	}
	return fc, nil
}

// failedRankList flattens a FaultComm's failure map into the ascending
// rank list a Result reports.
func failedRankList(fc FaultComm) []int {
	failed := fc.FailedRanks()
	if len(failed) == 0 {
		return nil
	}
	out := make([]int, 0, len(failed))
	for r := range failed {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// redistributeRows moves failed ranks' row shares onto the survivors
// (rank 0 included), round-robin so no survivor inherits a pathological
// share. Surviving ranks keep their own share unchanged — their view of
// the exchange pattern is exactly the no-fault one plus inherited rows.
func redistributeRows(assign [][]int, failed map[int]error) {
	if len(failed) == 0 {
		return
	}
	live := make([]int, 0, len(assign))
	for r := range assign {
		if failed[r] == nil {
			live = append(live, r)
		}
	}
	i := 0
	for r := range assign {
		if failed[r] == nil {
			continue
		}
		for _, row := range assign[r] {
			dst := live[i%len(live)]
			assign[dst] = append(assign[dst], row)
			i++
		}
		assign[r] = nil
	}
}
