package parallel

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/mpi"
	"simevo/internal/rng"
)

func boolPtr(b bool) *bool { return &b }

// detOpts disables compute measurement so virtual time (and thus Type III
// scheduling) is deterministic in tests.
func detOpts(procs int) Options {
	net := mpi.FastEthernet()
	return Options{Procs: procs, Net: &net, MeasureCompute: boolPtr(false)}
}

func testProblem(t testing.TB, obj fuzzy.Objectives, iters int, seed uint64) *core.Problem {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "par-t", Gates: 120, DFFs: 8, PIs: 6, POs: 6, Depth: 8, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(obj)
	cfg.MaxIters = iters
	cfg.Seed = seed
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// --- Row patterns ---

func TestFixedPatternShapes(t *testing.T) {
	p := FixedPattern{}
	even := p.Assign(0, 10, 3)
	if err := validatePattern(even, 10); err != nil {
		t.Fatalf("even assignment: %v", err)
	}
	// Contiguous blocks in even iterations.
	for _, rows := range even {
		for i := 1; i < len(rows); i++ {
			if rows[i] != rows[i-1]+1 {
				t.Fatalf("even iteration rows not contiguous: %v", rows)
			}
		}
	}
	odd := p.Assign(1, 10, 3)
	if err := validatePattern(odd, 10); err != nil {
		t.Fatalf("odd assignment: %v", err)
	}
	// Strided by m in odd iterations: slave j holds rows j, j+m, ...
	for j, rows := range odd {
		for i, r := range rows {
			if r != j+i*3 {
				t.Fatalf("odd iteration rank %d rows = %v, want stride 3", j, rows)
			}
		}
	}
}

func TestRandomPatternValidAndSeeded(t *testing.T) {
	a := NewRandomPattern(42)
	b := NewRandomPattern(42)
	for iter := 0; iter < 5; iter++ {
		pa := a.Assign(iter, 13, 4)
		if err := validatePattern(pa, 13); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		pb := b.Assign(iter, 13, 4)
		for j := range pa {
			if len(pa[j]) != len(pb[j]) {
				t.Fatal("same-seed random patterns diverged")
			}
			for i := range pa[j] {
				if pa[j][i] != pb[j][i] {
					t.Fatal("same-seed random patterns diverged")
				}
			}
		}
	}
}

func TestRandomPatternVariesAcrossIterations(t *testing.T) {
	p := NewRandomPattern(1)
	a := p.Assign(0, 12, 3)
	b := p.Assign(1, 12, 3)
	same := true
	for j := range a {
		for i := range a[j] {
			if i >= len(b[j]) || a[j][i] != b[j][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("random pattern repeated the identical assignment")
	}
}

// --- Codec ---

func TestAssignmentCodecRoundTrip(t *testing.T) {
	in := [][]int{{0, 3, 5}, {1, 2}, {4, 6, 7, 8}}
	payload := append(encodeAssignment(in), 0xde, 0xad)
	out, rest, err := decodeAssignment(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0] != 0xde {
		t.Fatalf("trailing bytes not preserved: %v", rest)
	}
	if len(out) != len(in) {
		t.Fatalf("rank count %d != %d", len(out), len(in))
	}
	for j := range in {
		for i := range in[j] {
			if out[j][i] != in[j][i] {
				t.Fatalf("rank %d rows %v != %v", j, out[j], in[j])
			}
		}
	}
}

func TestFloatCodecRoundTrip(t *testing.T) {
	in := []float64{0, 1, -1, 0.5, math.Pi, math.Inf(1)}
	out, err := decodeF64s(encodeF64s(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("value %d: %v != %v", i, out[i], in[i])
		}
	}
	if _, err := decodeF64s(make([]byte, 9)); err == nil {
		t.Fatal("odd-length payload accepted")
	}
}

// --- Type I ---

func TestTypeICommunicationAccounted(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 5, 5)
	res, err := RunTypeI(prob, detOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualTime <= 0 {
		t.Fatal("virtual time not accounted")
	}
	st := res.RankStats
	if st[0].BytesSent == 0 || st[1].BytesSent == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	// Master broadcasts the placement every iteration; slaves return
	// goodness chunks every iteration.
	if st[1].MsgsRecv < 5 {
		t.Fatalf("slave received %d messages, want >= iterations", st[1].MsgsRecv)
	}
}

func TestTypeIRejectsBadProcs(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 3, 1)
	if _, err := RunTypeI(prob, detOpts(1)); err == nil {
		t.Fatal("p=1 accepted")
	}
}

// --- Type II ---

func TestTypeIIProducesValidSolutions(t *testing.T) {
	for _, pattern := range []RowPattern{FixedPattern{}, NewRandomPattern(3)} {
		prob := testProblem(t, fuzzy.WirePower, 30, 6)
		opt := detOpts(3)
		opt.Pattern = pattern
		res, err := RunTypeII(prob, opt)
		if err != nil {
			t.Fatalf("%s: %v", pattern.Name(), err)
		}
		if err := res.Best.Validate(); err != nil {
			t.Fatalf("%s: best placement invalid: %v", pattern.Name(), err)
		}
		if res.BestMu <= 0 {
			t.Fatalf("%s: no quality achieved", pattern.Name())
		}
		if res.Iters != 30 {
			t.Fatalf("%s: ran %d iters, want 30", pattern.Name(), res.Iters)
		}
	}
}

func TestTypeIIImprovesOverInitial(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 40, 6)
	res, err := RunTypeII(prob, detOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	// μ is normalized to 0 at the initial placement.
	if res.BestMu < 0.05 {
		t.Fatalf("Type II did not improve: μ = %v", res.BestMu)
	}
	if res.BestCosts.Wire >= prob.Ref.Wire {
		t.Fatalf("wirelength did not improve: %v vs ref %v", res.BestCosts.Wire, prob.Ref.Wire)
	}
}

func TestTypeIITargetMu(t *testing.T) {
	// Learn a reachable quality first.
	probe := testProblem(t, fuzzy.WirePower, 40, 6)
	ref, err := RunTypeII(probe, detOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	target := ref.BestMu * 0.6

	prob := testProblem(t, fuzzy.WirePower, 40, 6)
	opt := detOpts(3)
	opt.TargetMu = target
	res, err := RunTypeII(prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("target μ %v not reached (best %v)", target, res.BestMu)
	}
	if res.TimeToTarget <= 0 {
		t.Fatal("TimeToTarget not recorded")
	}
	if res.Iters >= ref.Iters {
		t.Fatalf("target stop did not shorten the run: %d vs %d", res.Iters, ref.Iters)
	}
}

func TestTypeIIRejectsTooManyRanks(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 3, 1)
	opt := detOpts(64) // more ranks than rows
	if _, err := RunTypeII(prob, opt); err == nil {
		t.Fatal("more ranks than rows accepted")
	}
}

// --- Type III ---

func TestTypeIIIRuns(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 25, 8)
	opt := detOpts(3)
	opt.Retry = 5
	res, err := RunTypeIII(prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.BestMu <= 0 {
		t.Fatalf("no best solution: μ = %v", res.BestMu)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("best placement invalid: %v", err)
	}
	if res.BestCosts.Wire <= 0 {
		t.Fatal("best costs not recovered")
	}
}

func TestTypeIIIBestAtLeastSingleSearcher(t *testing.T) {
	// The store's final best must be >= the best of a single serial search
	// with the same stream as searcher rank 1 (the store can only improve
	// over the solutions reported to it).
	prob := testProblem(t, fuzzy.WirePower, 25, 8)
	single := prob.EngineFromReference(1).Run()

	prob2 := testProblem(t, fuzzy.WirePower, 25, 8)
	opt := detOpts(4)
	opt.Retry = 1000000 // no exchanges: searchers are fully independent
	res, err := RunTypeIII(prob2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu < single.BestMu-1e-12 {
		t.Fatalf("store best %v below searcher-1 independent best %v", res.BestMu, single.BestMu)
	}
}

func TestTypeIIIRejectsSmallCluster(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 5, 1)
	if _, err := RunTypeIII(prob, detOpts(2)); err == nil {
		t.Fatal("p=2 accepted for Type III")
	}
}

func TestTypeIIIRetryAffectsTraffic(t *testing.T) {
	run := func(retry int) int {
		prob := testProblem(t, fuzzy.WirePower, 25, 8)
		opt := detOpts(3)
		opt.Retry = retry
		res, err := RunTypeIII(prob, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.RankStats[1].MsgsSent + res.RankStats[2].MsgsSent
	}
	frequent := run(2)
	rare := run(1000000)
	if frequent <= rare {
		t.Fatalf("low retry threshold should cause more traffic: %d vs %d", frequent, rare)
	}
}

func TestTypeIIIDiversify(t *testing.T) {
	// Section 7 extension: per-thread allocation orders. The run must be
	// valid and produce a result at least as good as the plain variant's
	// weakest searcher would (sanity: > 0 and valid).
	prob := testProblem(t, fuzzy.WirePower, 25, 8)
	opt := detOpts(4)
	opt.Retry = 5
	opt.Diversify = true
	res, err := RunTypeIII(prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu <= 0 {
		t.Fatalf("diversified Type III μ = %v", res.BestMu)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("diversified Type III best invalid: %v", err)
	}
}

// FuzzDecodeAssignment feeds arbitrary bytes to the assignment header of a
// Type II broadcast, which every slave decodes. Decoding must not panic,
// whatever it accepts must re-encode to the bytes it consumed, and every
// assignment a slave accepts — one that passes validateAssignment against
// its row count — must be safe to turn into a domain: each row it names
// exists in the slave's placement.
func FuzzDecodeAssignment(f *testing.F) {
	ckt, err := gen.Generate(gen.Params{Name: "fz", Gates: 10, DFFs: 1, PIs: 2, POs: 2, Depth: 3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	const numRows = 6
	place := layout.NewRandom(ckt, numRows, rng.New(3))
	for procs := 2; procs <= 4; procs++ {
		data := encodeAssignment(FixedPattern{}.Assign(0, numRows, procs))
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	f.Add(encodeAssignment([][]int{{0, 1, 2}, {3, 4, 9}}))    // row out of range
	f.Add(encodeAssignment([][]int{{0, 1, 2}, {2, 3, 4, 5}})) // row twice
	f.Add([]byte{0xff, 0xff, 0, 0, 0xff, 0xff, 0xff, 0xff})   // huge counts
	f.Fuzz(func(t *testing.T, data []byte) {
		assign, rest, err := decodeAssignment(data)
		if err != nil {
			return
		}
		used := data[:len(data)-len(rest)]
		if enc := encodeAssignment(assign); !bytes.Equal(enc, used) {
			t.Fatalf("re-encoding gives %x, decoded from %x", enc, used)
		}
		if validateAssignment(assign, numRows) != nil {
			return // the slave rejects it
		}
		for _, rows := range assign {
			for _, r := range rows {
				_ = place.Row(r) // DomainFromRows' access
			}
		}
	})
}

// TestTypeIISlaveRejectsBadAssignment broadcasts a well-formed placement
// with an assignment naming a row the placement does not have. The slave
// must fail with an error instead of panicking in DomainFromRows.
func TestTypeIISlaveRejectsBadAssignment(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 5, 3)
	place := prob.NewEngine(0).Placement()
	bad := [][]int{{0}, {place.NumRows() + 7}}
	msg := append(encodeAssignment(bad), bcastFull)
	msg = append(msg, place.Encode()...)
	cl := mpi.NewCluster(2, mpi.Options{})
	err := cl.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Bcast(0, msg)
			return nil
		}
		return typeIISlave(prob, c)
	})
	if err == nil || !strings.Contains(err.Error(), "bad assignment") {
		t.Fatalf("slave accepted an out-of-range row: err = %v", err)
	}
}
