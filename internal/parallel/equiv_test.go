package parallel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/transport"
)

// The strategy and transport half of the equivalence matrix; the serial
// rows, with the same fields and checks, are in internal/core. The oracle
// rule:
//   - a Type I row must reproduce the serial run on the DisableIncremental
//     reference engine (Type I is defined as the serial trajectory);
//   - a Type II or Type III row must reproduce the same strategy on the
//     reference engine, on the simulated cluster with compute measurement
//     off;
//   - a TCP row must reproduce its run on the simulated cluster. Only
//     Type I and II have TCP rows: Type III over TCP follows wall-clock
//     order.

// equivRow is one parallel run of the matrix.
type equivRow struct {
	circuit   string // "par-t" (testProblem's circuit) or a catalog name
	obj       string // wp, wpd, wpc or wpdc (equivObjectives)
	seed      uint64
	iters     int
	strategy  string // typeI, typeII or typeIII
	transport string // sim or tcp
	procs     int
	// pattern seeds a Type II random row pattern (0: FixedPattern).
	pattern uint64
	// sync selects the blocking Type III exchange; retry is its retry
	// threshold (0: the default).
	sync  bool
	retry int
	// check runs row-specific assertions on the finished run; every
	// Type II row also runs checkPatchBytes.
	check func(t *testing.T, row equivRow, got *Result)
}

// checks runs the row's assertions on the finished run.
func (r equivRow) checks(t *testing.T, got *Result) {
	t.Helper()
	if r.strategy == "typeII" {
		checkPatchBytes(t, r, got)
	}
	if r.check != nil {
		r.check(t, r, got)
	}
}

func (r equivRow) name() string {
	s := fmt.Sprintf("%s/%s/%s/%s/seed%d/%dit/p%d", r.strategy, r.transport, r.circuit, r.obj, r.seed, r.iters, r.procs)
	if r.pattern != 0 {
		s += fmt.Sprintf("/random%d", r.pattern)
	}
	if r.strategy == "typeIII" {
		if r.sync {
			s += "/sync"
		} else {
			s += "/async"
		}
		if r.retry > 0 {
			s += fmt.Sprintf("/retry%d", r.retry)
		}
	}
	return s
}

var equivObjectives = map[string]fuzzy.Objectives{
	"wp":   fuzzy.WirePower,
	"wpd":  fuzzy.WirePowerDelay,
	"wpc":  fuzzy.WirePowerCongest,
	"wpdc": fuzzy.WirePowerDelayCongest,
}

var equivStrategies = map[string]struct {
	run  func(*core.Problem, Options) (*Result, error)
	rank func(Comm, *core.Problem, Options) (*Result, error)
}{
	"typeI":   {RunTypeI, TypeIRank},
	"typeII":  {RunTypeII, TypeIIRank},
	"typeIII": {RunTypeIII, TypeIIIRank},
}

// equivRows is the parallel half of the matrix.
var equivRows = func() []equivRow {
	var rows []equivRow
	for _, p := range []int{2, 3, 4} {
		rows = append(rows, equivRow{circuit: "par-t", obj: "wp", seed: 5, iters: 8, strategy: "typeI", transport: "sim", procs: p})
	}
	rows = append(rows,
		equivRow{circuit: "par-t", obj: "wp", seed: 2006, iters: 30, strategy: "typeII", transport: "sim", procs: 3},
		// The random pattern's reshuffling makes a broadcast's moves span
		// every rank's rows.
		equivRow{circuit: "par-t", obj: "wp", seed: 7, iters: 20, strategy: "typeII", transport: "sim", procs: 4, pattern: 7},
		equivRow{circuit: "par-t", obj: "wp", seed: 11, iters: 25, strategy: "typeII", transport: "sim", procs: 3},
		// Type III against its reference engine: adoptions patch a warm
		// searcher through slot deltas (AdoptPlacement) where the
		// reference engine re-evaluates from scratch.
		equivRow{circuit: "par-t", obj: "wp", seed: 8, iters: 25, strategy: "typeIII", transport: "sim", procs: 4, retry: 5},
		equivRow{circuit: "par-t", obj: "wp", seed: 8, iters: 25, strategy: "typeIII", transport: "sim", procs: 4, retry: 5, sync: true, check: checkAdopts},
		equivRow{circuit: "s1196", obj: "wp", seed: 2006, iters: 40, strategy: "typeIII", transport: "sim", procs: 4, retry: 5, check: checkAdopts},
	)
	// Every strategy under the multi-objective sets.
	for _, obj := range []string{"wpd", "wpc", "wpdc"} {
		rows = append(rows,
			equivRow{circuit: "par-t", obj: obj, seed: 2006, iters: 10, strategy: "typeI", transport: "sim", procs: 3},
			equivRow{circuit: "par-t", obj: obj, seed: 2006, iters: 15, strategy: "typeII", transport: "sim", procs: 3},
			equivRow{circuit: "par-t", obj: obj, seed: 2006, iters: 15, strategy: "typeIII", transport: "sim", procs: 4, retry: 2, sync: true, check: checkAdopts},
		)
	}
	return append(rows,
		equivRow{circuit: "par-t", obj: "wp", seed: 11, iters: 20, strategy: "typeI", transport: "tcp", procs: 3},
		equivRow{circuit: "par-t", obj: "wp", seed: 12, iters: 20, strategy: "typeII", transport: "tcp", procs: 3},
	)
}()

// problem builds the row's problem on the incremental engine.
func (r equivRow) problem(t *testing.T) *core.Problem {
	t.Helper()
	if r.circuit == "par-t" {
		return testProblem(t, equivObjectives[r.obj], r.iters, r.seed)
	}
	ckt, err := gen.Benchmark(r.circuit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(equivObjectives[r.obj])
	cfg.MaxIters = r.iters
	cfg.Seed = r.seed
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// options is the row's deterministic cluster configuration. Each call
// builds a fresh random pattern, so every run starts it from its seed.
func (r equivRow) options() Options {
	opt := detOpts(r.procs)
	if r.pattern != 0 {
		opt.Pattern = NewRandomPattern(r.pattern)
	}
	opt.SyncExchange = r.sync
	opt.Retry = r.retry
	return opt
}

// referenceOf returns prob with the from-scratch reference engine
// selected. The copy shares prob's read-only tables and canonical start;
// engines read DisableIncremental when they are built.
func referenceOf(prob *core.Problem) *core.Problem {
	ref := *prob
	ref.Cfg.DisableIncremental = true
	return &ref
}

// TestEquivalenceMatrix runs every simulated-cluster row against its
// oracle.
func TestEquivalenceMatrix(t *testing.T) {
	for _, row := range equivRows {
		if row.transport != "sim" {
			continue
		}
		t.Run(row.name(), func(t *testing.T) {
			t.Parallel()
			prob := row.problem(t)
			got, err := equivStrategies[row.strategy].run(prob, row.options())
			if err != nil {
				t.Fatal(err)
			}
			if row.strategy == "typeI" {
				serial := referenceOf(prob).NewEngine(0).Run()
				sameResult(t, &Result{BestMu: serial.BestMu, BestCosts: serial.BestCosts, Best: serial.Best, MuTrace: serial.MuTrace}, got)
			} else {
				ref, err := equivStrategies[row.strategy].run(referenceOf(prob), row.options())
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, ref, got)
				sameSchedule(t, ref, got)
			}
			row.checks(t, got)
		})
	}
}

// TestTCPMatchesSim runs every TCP row of the matrix over an in-process
// TCP cluster and requires the result of the simulated cluster: TrySend
// and the root-side collective halves carry identical traffic. It is a
// top-level test so that a -run pattern (which splits at '/') can select
// the TCP rows alone.
func TestTCPMatchesSim(t *testing.T) {
	for _, row := range equivRows {
		if row.transport != "tcp" {
			continue
		}
		t.Run(row.name(), func(t *testing.T) {
			prob := row.problem(t)
			st := equivStrategies[row.strategy]
			sim, err := st.run(prob, row.options())
			if err != nil {
				t.Fatal(err)
			}
			got, err := runTCP(t, prob, row.options(), transport.Config{}, nil, st.rank)
			if err != nil {
				t.Fatal(err)
			}
			sameBest(t, sim, got)
			if len(got.FailedRanks) != 0 {
				t.Fatalf("fault-free run reported failed ranks %v", got.FailedRanks)
			}
			row.checks(t, got)
		})
	}
}

// sameBest fails unless got reports bitwise the best μ, best costs and
// best placement of ref.
func sameBest(t *testing.T, ref, got *Result) {
	t.Helper()
	if math.Float64bits(got.BestMu) != math.Float64bits(ref.BestMu) {
		t.Fatalf("best μ %v, oracle %v", got.BestMu, ref.BestMu)
	}
	if got.BestCosts != ref.BestCosts {
		t.Fatalf("best costs %+v, oracle %+v", got.BestCosts, ref.BestCosts)
	}
	if got.Best.Fingerprint() != ref.Best.Fingerprint() {
		t.Fatal("best placement diverged from the oracle")
	}
}

// sameResult is sameBest plus the whole μ trace.
func sameResult(t *testing.T, ref, got *Result) {
	t.Helper()
	sameBest(t, ref, got)
	if len(got.MuTrace) != len(ref.MuTrace) {
		t.Fatalf("trace length %d, oracle %d", len(got.MuTrace), len(ref.MuTrace))
	}
	for i := range ref.MuTrace {
		if math.Float64bits(got.MuTrace[i]) != math.Float64bits(ref.MuTrace[i]) {
			t.Fatalf("μ trace diverged at %d: %v, oracle %v", i, got.MuTrace[i], ref.MuTrace[i])
		}
	}
}

// sameSchedule fails unless two simulated-cluster runs of one strategy
// took the same iterations, virtual time and per-rank traffic, and, for
// Type III, made the same exchanges: the engine behind a rank must not
// change what the rank sends.
func sameSchedule(t *testing.T, ref, got *Result) {
	t.Helper()
	if got.Iters != ref.Iters || got.VirtualTime != ref.VirtualTime {
		t.Fatalf("%d iterations in %v virtual time, oracle %d in %v", got.Iters, got.VirtualTime, ref.Iters, ref.VirtualTime)
	}
	if !slices.Equal(got.RankStats, ref.RankStats) {
		t.Fatalf("rank traffic %+v, oracle %+v", got.RankStats, ref.RankStats)
	}
	if (got.Exchange == nil) != (ref.Exchange == nil) {
		t.Fatal("exchange stats present in only one run")
	}
	if g, r := got.Exchange, ref.Exchange; g != nil &&
		(g.Posted != r.Posted || g.Adopted != r.Adopted || g.StoreEpoch != r.StoreEpoch) {
		t.Fatalf("exchanges: %d posted, %d adopted, epoch %d; oracle %d, %d, %d",
			g.Posted, g.Adopted, g.StoreEpoch, r.Posted, r.Adopted, r.StoreEpoch)
	}
}

// fullFrameBytes is what one broadcast of the full placement would cost
// the master of a procs-rank Type II run: the assignment header and the
// placement encoding, sent to every slave.
func fullFrameBytes(res *Result, procs int) int {
	rows := res.Best.NumRows()
	assign := FixedPattern{}.Assign(0, rows, procs)
	return (procs - 1) * (len(encodeAssignment(assign)) + len(res.Best.Encode()))
}

// checkPatchBytes requires a Type II master to send less than half of
// what a full placement every iteration would cost: its broadcasts carry
// only the moves since the previous one.
func checkPatchBytes(t *testing.T, row equivRow, got *Result) {
	full := row.iters * fullFrameBytes(got, row.procs)
	sent := got.RankStats[0].BytesSent
	if 2*sent >= full {
		t.Fatalf("master sent %d bytes, %d iterations of full frames %d: not under half", sent, row.iters, full)
	}
	t.Logf("master bytes sent: full frames %d, patches %d (%.1f%%)", full, sent, 100*float64(sent)/float64(full))
}

// checkAdopts requires a Type III run to have adopted a store solution,
// so the row exercised the warm adoption patch. The rows' retry
// thresholds and iteration counts are chosen so that it does.
func checkAdopts(t *testing.T, _ equivRow, got *Result) {
	if got.Exchange.Adopted == 0 {
		t.Error("no searcher adopted a store solution")
	}
}
