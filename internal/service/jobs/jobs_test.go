package jobs

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/transport"
)

// smallBench renders a tiny deterministic circuit as .bench text, for the
// uploaded-netlist path.
func smallBench(t *testing.T) string {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "svc-t", Gates: 60, DFFs: 4, PIs: 5, POs: 5, Depth: 6, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, ckt); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSpecNormalize(t *testing.T) {
	spec, err := Spec{Circuit: "s1196", Strategy: "TypeII"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Strategy != StrategyTypeII || spec.Procs != 4 || spec.Pattern != "fixed" {
		t.Fatalf("bad normalization: %+v", spec)
	}
	if spec.Objectives != "wire+power" || spec.MaxIters != 350 {
		t.Fatalf("bad defaults: %+v", spec)
	}

	bad := []Spec{
		{Strategy: "serial"}, // no circuit
		{Circuit: "s1196", Bench: "x", Strategy: "serial"},     // both
		{Circuit: "nope", Strategy: "serial"},                  // unknown circuit
		{Circuit: "s1196", Strategy: "quantum"},                // unknown strategy
		{Circuit: "s1196", Strategy: "sa", Objectives: "wire"}, // metaheur restriction
		{Circuit: "s1196", Strategy: "type3", Procs: 2},        // too few ranks
		{Circuit: "s1196", Strategy: "type2", Pattern: "zig"},  // unknown pattern
		{Circuit: "s1196", Strategy: "serial", Rows: MaxRows + 1},
		{Circuit: "s1196", Strategy: "type1", Procs: MaxProcs + 1},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, s)
		}
	}
	if _, err := (Spec{Circuit: "s1196", Strategy: "type3", Rows: MaxRows, Procs: MaxProcs}).Normalize(); err != nil {
		t.Errorf("spec at the caps rejected: %v", err)
	}
}

// FuzzSpecNormalize decodes arbitrary JSON into a Spec, as the API does,
// and normalizes it. Normalize must not panic, an accepted spec must stay
// within the caps, and normalizing it again must change neither the spec
// nor its cache key.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"circuit":"s1196","strategy":"serial"}`,
		`{"circuit":"s1196","strategy":"TypeII","procs":3,"pattern":"Random","transport":"TCP"}`,
		`{"circuit":"s3330","strategy":"iii","procs":4,"retry":5,"diversify":true,"sync_exchange":true}`,
		`{"circuit":"s1238","strategy":"sa","moves":100,"max_iters":9,"bias":0.2,"target_mu":0.5}`,
		`{"circuit":"s1488","strategy":"ga","objectives":"Power+Wire","rows":12}`,
		`{"circuit":"s1494","strategy":"serial","objectives":"congest+delay+wire+power","seed":7}`,
		`{"bench":"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n","strategy":"ts","max_retries":2}`,
		`{"circuit":"s1196","strategy":"serial","rows":1000000000}`,
		`{"circuit":"s1196","strategy":"type1","procs":100000}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var s Spec
		if json.Unmarshal([]byte(body), &s) != nil {
			return
		}
		n, err := s.Normalize()
		if err != nil {
			return
		}
		if n.Rows < 0 || n.Rows > MaxRows || n.Procs < 0 || n.Procs > MaxProcs {
			t.Fatalf("accepted spec outside the caps: rows %d, procs %d", n.Rows, n.Procs)
		}
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected: %v", n, err)
		}
		if again != n {
			t.Fatalf("Normalize not idempotent:\n first  %+v\n second %+v", n, again)
		}
		if again.Fingerprint() != n.Fingerprint() {
			t.Fatal("re-normalizing changed the fingerprint")
		}
	})
}

func TestSpecFingerprint(t *testing.T) {
	a, err := Spec{Circuit: "s1196", Strategy: "serial", MaxIters: 10}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.IncludePlacement = true
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("IncludePlacement changed the cache key")
	}
	c := a
	c.Seed = 7
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("seed did not change the cache key")
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", Result{BestMu: 1})
	c.put("b", Result{BestMu: 2})
	if _, ok := c.get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.put("c", Result{BestMu: 3}) // evicts b (least recently used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
}

// waitTerminal blocks until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) View {
	t.Helper()
	notify, unsubscribe, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsubscribe()
	deadline := time.After(60 * time.Second)
	for {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		select {
		case <-notify:
		case <-deadline:
			t.Fatalf("job %s stuck in state %s", id, v.State)
		}
	}
}

func TestManagerRunAndCache(t *testing.T) {
	m := NewManager(Options{Workers: 2, CacheSize: 8})
	defer m.Close()
	bench := smallBench(t)

	spec := Spec{Bench: bench, Strategy: "serial", MaxIters: 30, IncludePlacement: true}
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job in state %s", v.State)
	}

	done := waitTerminal(t, m, v.ID)
	if done.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.Result == nil || done.Result.BestMu <= 0 || done.Result.Iters != 30 {
		t.Fatalf("bad result: %+v", done.Result)
	}
	if len(done.Result.Placement) == 0 {
		t.Fatal("include_placement did not attach the placement")
	}
	if done.Result.Cached {
		t.Fatal("first run reported cached")
	}

	// Identical resubmit must be served from the cache, instantly done.
	v2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v2.State != StateDone || v2.Result == nil || !v2.Result.Cached {
		t.Fatalf("resubmit not served from cache: %+v", v2)
	}
	if v2.Result.BestMu != done.Result.BestMu {
		t.Fatalf("cached μ %.6f differs from original %.6f", v2.Result.BestMu, done.Result.BestMu)
	}

	// A different seed misses the cache.
	v3, err := m.Submit(Spec{Bench: bench, Strategy: "serial", MaxIters: 30, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if v3.State == StateDone {
		t.Fatal("different spec was served from cache")
	}
	waitTerminal(t, m, v3.ID)
}

// TestManagerCacheFilledBeforeDone resubmits every spec the moment its
// job is seen done: the resubmission must always hit the cache. The
// journal's synced write on the finish path widens the window in which a
// cache filled after the job turned done would be missed.
func TestManagerCacheFilledBeforeDone(t *testing.T) {
	jr, err := OpenJournal(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	m := NewManager(Options{Workers: 2, CacheSize: 128, Journal: jr})
	defer m.Close()
	bench := smallBench(t)
	for seed := uint64(1); seed <= 100; seed++ {
		spec := Spec{Bench: bench, Strategy: "serial", MaxIters: 2, Seed: seed}
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if done := waitTerminal(t, m, v.ID); done.State != StateDone {
			t.Fatalf("seed %d: job finished %s (%s)", seed, done.State, done.Error)
		}
		again, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if again.State != StateDone || again.Result == nil || !again.Result.Cached {
			t.Fatalf("seed %d: resubmit right after done missed the cache: state %s", seed, again.State)
		}
	}
}

func TestManagerCancelRunning(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()

	// A budget far beyond what can finish quickly keeps the job running
	// until cancelled.
	v, err := m.Submit(Spec{Bench: smallBench(t), Strategy: "serial", MaxIters: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first progress report so the run is demonstrably
	// in-flight, then cancel.
	notify, unsubscribe, err := m.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(60 * time.Second)
	for {
		cur, err := m.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress != nil && cur.Progress.Iter > 0 {
			break
		}
		select {
		case <-notify:
		case <-deadline:
			t.Fatal("job never reported progress")
		}
	}
	unsubscribe()
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}

	got := waitTerminal(t, m, v.ID)
	if got.State != StateCanceled {
		t.Fatalf("cancelled job finished %s", got.State)
	}
	if got.Result == nil || got.Result.BestMu <= 0 {
		t.Fatalf("cancelled job lost its best-so-far result: %+v", got.Result)
	}
	if got.Result.Iters >= 10_000_000 {
		t.Fatal("cancelled job ran to completion")
	}
}

func TestManagerCancelQueued(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 4})
	defer m.Close()
	bench := smallBench(t)

	// Occupy the only worker, then queue a second job and cancel it.
	blocker, err := m.Submit(Spec{Bench: bench, Strategy: "serial", MaxIters: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Spec{Bench: bench, Strategy: "serial", MaxIters: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("queued job state %s after cancel", got.State)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, blocker.ID)
}

func TestManagerQueueFull(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 1})
	defer m.Close()
	bench := smallBench(t)

	ids := make([]string, 0, 2)
	// First job may start immediately; the second fills the queue; a third
	// must be rejected. Allow one retry in case the worker drains faster.
	var rejected bool
	for i := 0; i < 8; i++ {
		v, err := m.Submit(Spec{Bench: bench, Strategy: "serial",
			MaxIters: 10_000_000, Seed: uint64(i)})
		if err == ErrQueueFull {
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if !rejected {
		t.Fatal("queue never filled")
	}

	// Cancelling a queued job must free its slot immediately.
	var queuedID string
	for _, id := range ids {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateQueued {
			queuedID = id
		}
	}
	if queuedID == "" {
		t.Fatal("no job left queued after rejection")
	}
	if _, err := m.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(Spec{Bench: bench, Strategy: "serial",
		MaxIters: 10_000_000, Seed: 99})
	if err != nil {
		t.Fatalf("queue slot not freed by cancel: %v", err)
	}
	ids = append(ids, v.ID)

	for _, id := range ids {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestManagerErrors(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	if _, err := m.Get("j-999999"); err != ErrNotFound {
		t.Fatalf("Get unknown: %v", err)
	}
	if _, err := m.Cancel("j-999999"); err != ErrNotFound {
		t.Fatalf("Cancel unknown: %v", err)
	}
	if _, _, err := m.Subscribe("j-999999"); err != ErrNotFound {
		t.Fatalf("Subscribe unknown: %v", err)
	}
	m.Close()
	if _, err := m.Submit(Spec{Circuit: "s1196", Strategy: "serial"}); err != ErrClosed {
		t.Fatalf("Submit after close: %v", err)
	}
}

// TestManagerParallelStrategies runs one tiny job per strategy end to end.
func TestManagerParallelStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-strategy sweep")
	}
	m := NewManager(Options{Workers: 2})
	defer m.Close()
	bench := smallBench(t)

	for _, strat := range Strategies() {
		spec := Spec{Bench: bench, Strategy: strat, MaxIters: 6}
		if strat == StrategySA {
			spec.Moves = 500
		}
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		got := waitTerminal(t, m, v.ID)
		if got.State != StateDone {
			t.Fatalf("%s finished %s (%s)", strat, got.State, got.Error)
		}
		if got.Result == nil || got.Result.BestMu <= 0 {
			t.Fatalf("%s: bad result %+v", strat, got.Result)
		}
	}
}

// TestManagerClusterDispatch exercises the TCP-transport job path end to
// end inside one process: a hub with two joined workers serves a Type II
// job farmed out by the manager, and the result must equal the same-seed
// simulated-transport job.
func TestManagerClusterDispatch(t *testing.T) {
	hub, err := transport.Listen("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for i := 0; i < 2; i++ {
		w, err := transport.Join(context.Background(), hub.Addr().String(), "")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(context.Background(), func(tr transport.Transport) error {
			return ServeRank(context.Background(), tr)
		})
	}

	m := NewManager(Options{Workers: 1, Hub: hub})
	defer m.Close()

	spec := Spec{Circuit: "s1196", Strategy: "type2", Procs: 3, MaxIters: 15, Seed: 41}

	spec.Transport = TransportTCP
	tcpView, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	tcpDone := waitTerminal(t, m, tcpView.ID)
	if tcpDone.State != StateDone {
		t.Fatalf("tcp job state %v (%s)", tcpDone.State, tcpDone.Error)
	}

	spec.Transport = TransportSim
	simView, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	simDone := waitTerminal(t, m, simView.ID)
	if simDone.State != StateDone {
		t.Fatalf("sim job state %v (%s)", simDone.State, simDone.Error)
	}

	if tcpDone.Result.BestMu != simDone.Result.BestMu {
		t.Fatalf("tcp best μ %v != simulated %v", tcpDone.Result.BestMu, simDone.Result.BestMu)
	}
	if tcpDone.Result.Wire != simDone.Result.Wire || tcpDone.Result.Power != simDone.Result.Power {
		t.Fatalf("tcp costs %+v != simulated %+v", tcpDone.Result, simDone.Result)
	}
	// Workers must be parked again for the next job.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Workers() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers not re-parked after job (have %d)", hub.Workers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManagerRejectsClusterWithoutHub asserts a tcp-transport submission
// fails fast when the service has no cluster listener.
func TestManagerRejectsClusterWithoutHub(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	_, err := m.Submit(Spec{Circuit: "s1196", Strategy: "type2", Transport: "tcp"})
	if err == nil {
		t.Fatal("tcp job accepted without a hub")
	}
}

// TestSpecRejectsTransportOnInProcessStrategies asserts a tcp transport on
// serial/metaheuristic jobs errors instead of silently running locally.
func TestSpecRejectsTransportOnInProcessStrategies(t *testing.T) {
	for _, strategy := range []string{"serial", "sa", "ga", "ts"} {
		if _, err := (Spec{Circuit: "s1196", Strategy: strategy, Transport: "tcp"}).Normalize(); err == nil {
			t.Fatalf("strategy %s accepted transport tcp", strategy)
		}
		norm, err := (Spec{Circuit: "s1196", Strategy: strategy, Transport: "sim"}).Normalize()
		if err != nil {
			t.Fatalf("strategy %s rejected redundant sim transport: %v", strategy, err)
		}
		if norm.Transport != "" {
			t.Fatalf("strategy %s kept transport %q", strategy, norm.Transport)
		}
	}
}

// TestSpecObjectivesParsing covers the plus-separated objective parser:
// aliases and term order normalize to the canonical spelling; unknown
// terms and unsupported combinations fail fast.
func TestSpecObjectivesParsing(t *testing.T) {
	accept := map[string]string{
		"wire":                        "wire",
		"wire+power":                  "wire+power",
		"power+wire":                  "wire+power",
		"wire+power+delay":            "wire+power+delay",
		"wire+power+congestion":       "wire+power+congestion",
		"congest+power+wire":          "wire+power+congestion",
		"wire+power+delay+congestion": "wire+power+delay+congestion",
		"Congestion+Delay+Power+Wire": "wire+power+delay+congestion",
	}
	for in, want := range accept {
		norm, err := (Spec{Circuit: "s1196", Strategy: "serial", Objectives: in}).Normalize()
		if err != nil {
			t.Errorf("objectives %q rejected: %v", in, err)
			continue
		}
		if norm.Objectives != want {
			t.Errorf("objectives %q normalized to %q, want %q", in, norm.Objectives, want)
		}
	}
	for _, in := range []string{"wires", "wire+hpwl", "congestion+delay", "power", "wire++power", ""} {
		if in == "" {
			continue // empty selects the default, covered elsewhere
		}
		if _, err := (Spec{Circuit: "s1196", Strategy: "serial", Objectives: in}).Normalize(); err == nil {
			t.Errorf("objectives %q accepted, want fail-fast error", in)
		}
	}
	// Metaheuristics stay wire+power only.
	if _, err := (Spec{Circuit: "s1196", Strategy: "sa", Objectives: "wire+power+congestion"}).Normalize(); err == nil {
		t.Error("sa accepted congestion objectives")
	}
}
