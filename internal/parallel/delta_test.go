package parallel

import (
	"bytes"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/rng"
)

// TestSlotDeltaCodecRoundTrip asserts encode → decode is the identity on
// delta batches produced by real placement diffs.
func TestSlotDeltaCodecRoundTrip(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 5, 2006)
	base := layout.NewRandom(prob.Ckt, 10, rng.New(3))
	snap := base.SnapshotSlots(nil)
	// The target differs from the base by a slot permutation — the shape
	// allocation merges produce (row lengths never change).
	target := base.Clone()
	r := rng.New(9)
	movable := prob.Ckt.Movable()
	cells := movable[:24]
	refs := make([]layout.SlotRef, len(cells))
	for i, id := range cells {
		refs[i] = target.RemoveToHole(id)
	}
	for i, j := range r.Perm(len(cells)) {
		target.FillHole(refs[j], cells[i])
	}
	target.Recompute()
	deltas := target.DiffSlots(snap, nil)
	if len(deltas) == 0 {
		t.Fatal("slot permutation produced no deltas")
	}
	buf := appendSlotDeltas(nil, deltas)
	got, err := decodeSlotDeltas(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(deltas) {
		t.Fatalf("decoded %d deltas, want %d", len(got), len(deltas))
	}
	for i := range got {
		if got[i] != deltas[i] {
			t.Fatalf("delta %d = %+v, want %+v", i, got[i], deltas[i])
		}
	}
	// The round-tripped batch must patch the base to the target state.
	if err := base.ApplySlotDeltas(got); err != nil {
		t.Fatal(err)
	}
	base.Recompute()
	if base.Fingerprint() != target.Fingerprint() {
		t.Fatal("round-tripped deltas did not reproduce the target placement")
	}
}

// FuzzSlotDeltaDecode hardens the delta decoder against corrupt payloads:
// it must return an error or a valid batch, never panic, and must be
// byte-exact on re-encode of whatever it accepts.
func FuzzSlotDeltaDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(appendSlotDeltas(nil, []layout.SlotDelta{{Cell: 3, Row: 1, Idx: 2}}))
	f.Add(appendSlotDeltas(nil, []layout.SlotDelta{{Cell: 0, Row: 0, Idx: 0}, {Cell: 9, Row: 4, Idx: 7}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := decodeSlotDeltas(data)
		if err != nil {
			return
		}
		if got := appendSlotDeltas(nil, ds); !bytes.Equal(got, data) {
			t.Fatalf("re-encode of accepted batch differs: %x vs %x", got, data)
		}
	})
}

// runTypeIIRef runs Type II on a fresh test problem, on the incremental
// engine or on the from-scratch reference engine (DisableIncremental).
func runTypeIIRef(t *testing.T, obj fuzzy.Objectives, iters int, seed uint64, reference bool, opt Options) *Result {
	t.Helper()
	prob := testProblem(t, obj, iters, seed)
	prob.Cfg.DisableIncremental = reference
	res, err := RunTypeII(prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fullFrameBytes is what one full-placement broadcast costs the master of
// a procs-rank run: the assignment header, the kind byte and the placement
// encoding, sent to every slave.
func fullFrameBytes(res *Result, procs int) int {
	rows := res.Best.NumRows()
	assign := FixedPattern{}.Assign(0, rows, procs)
	return (procs - 1) * (len(encodeAssignment(assign)) + 1 + len(res.Best.Encode()))
}

// sameTrajectory fails unless two Type II runs agree bit for bit: best μ,
// best placement and the whole μ trace.
func sameTrajectory(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	if got.BestMu != ref.BestMu {
		t.Fatalf("%s: best μ %v != reference %v", name, got.BestMu, ref.BestMu)
	}
	if got.Best.Fingerprint() != ref.Best.Fingerprint() {
		t.Fatalf("%s: best placement diverged from reference", name)
	}
	if len(got.MuTrace) != len(ref.MuTrace) {
		t.Fatalf("%s: trace length %d vs %d", name, len(got.MuTrace), len(ref.MuTrace))
	}
	for i := range ref.MuTrace {
		if got.MuTrace[i] != ref.MuTrace[i] {
			t.Fatalf("%s: μ trace diverged at %d: %v vs %v", name, i, got.MuTrace[i], ref.MuTrace[i])
		}
	}
}

// TestTypeIIDeltaMatchesFullBroadcast is the delta-codec end-to-end
// invariant: a Type II run with delta broadcasts (slaves patch their warm
// incremental state) follows bitwise the same trajectory as the reference
// engine, which re-evaluates every placement from scratch as a
// full-broadcast slave would — and the master ships measurably fewer bytes
// than a full frame every iteration would cost.
func TestTypeIIDeltaMatchesFullBroadcast(t *testing.T) {
	const iters, procs = 30, 3
	ref := runTypeIIRef(t, fuzzy.WirePower, iters, 2006, true, detOpts(procs))
	delta := runTypeIIRef(t, fuzzy.WirePower, iters, 2006, false, detOpts(procs))
	sameTrajectory(t, "delta broadcasts", ref, delta)
	fullBytes := iters * fullFrameBytes(delta, procs)
	deltaBytes := delta.RankStats[0].BytesSent
	if deltaBytes >= fullBytes {
		t.Fatalf("delta broadcasts sent %d bytes, %d iterations of full frames %d — no saving",
			deltaBytes, iters, fullBytes)
	}
	t.Logf("master bytes sent: full frames %d, delta %d (%.1f%%)",
		fullBytes, deltaBytes, 100*float64(deltaBytes)/float64(fullBytes))
}

// TestTypeIIDeltaMatchesWithRandomPattern repeats the equivalence under the
// random row pattern, whose cross-iteration reshuffling exercises deltas
// spanning every rank's rows.
func TestTypeIIDeltaMatchesWithRandomPattern(t *testing.T) {
	run := func(reference bool) *Result {
		opt := detOpts(4)
		opt.Pattern = NewRandomPattern(7)
		return runTypeIIRef(t, fuzzy.WirePower, 20, 7, reference, opt)
	}
	sameTrajectory(t, "random-pattern delta broadcasts", run(true), run(false))
}

// TestTypeIIDeltaMatchesReferenceEngine holds the delta broadcasts over
// the incremental engine to the from-scratch reference engine on a second
// seed, down to the raw objective costs of the best solution — wire state
// warm-patched vs rebuilt per iteration from first principles.
func TestTypeIIDeltaMatchesReferenceEngine(t *testing.T) {
	ref := runTypeIIRef(t, fuzzy.WirePower, 25, 11, true, detOpts(3))
	delta := runTypeIIRef(t, fuzzy.WirePower, 25, 11, false, detOpts(3))
	sameTrajectory(t, "delta+incremental", ref, delta)
	if delta.BestCosts != ref.BestCosts {
		t.Fatalf("best costs diverged: reference %+v, delta+incremental %+v", ref.BestCosts, delta.BestCosts)
	}
}
