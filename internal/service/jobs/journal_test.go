package jobs

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// appendRaw writes bytes to the journal file outside the Journal API — the
// torn half-line a crash mid-write leaves behind.
func appendRaw(path, s string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(s)
	return err
}

// TestJournalCrashRecovery simulates a coordinator crash by handcrafting a
// journal mid-flight — one finished job, one that crashed while running,
// one still queued — then restarts the manager against it twice. Finished
// jobs must come back terminal (and warm the result cache) without
// re-running; unfinished jobs must re-run under their original IDs; the ID
// sequence must continue past the replayed jobs.
func TestJournalCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	spec, err := Spec{Bench: smallBench(t), Strategy: "serial", MaxIters: 30}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// A sentinel result distinguishes "served from the journal" from
	// "re-ran the job" — no real 60-gate run lands on exactly this μ.
	sentinel := &Result{BestMu: 123.456, Iters: 30}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, rec := range []journalRecord{
		{Type: "submit", ID: "j-000001", Time: now, Spec: &spec},
		{Type: "start", ID: "j-000001", Time: now},
		{Type: "finish", ID: "j-000001", Time: now, State: StateDone, Result: sentinel},
		{Type: "submit", ID: "j-000002", Time: now, Spec: &spec},
		{Type: "start", ID: "j-000002", Time: now}, // crashed mid-run
		{Type: "submit", ID: "j-000003", Time: now, Spec: &spec},
	} {
		if rec.Spec != nil && rec.ID != "j-000001" {
			// Vary the spec per job so the replayed runs can't be satisfied
			// from the cache warmed by j-000001's journaled result.
			varied := spec
			varied.Seed = 7
			if rec.ID == "j-000003" {
				varied.Seed = 9
			}
			rec.Spec = &varied
		}
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Restart 1: replay the journal.
	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Workers: 1, QueueDepth: 8, CacheSize: 8, MaxJobs: 64, Journal: j})

	v, err := m.Get("j-000001")
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || v.Result == nil || v.Result.BestMu != sentinel.BestMu {
		t.Fatalf("finished job not restored verbatim: %+v", v)
	}
	for _, id := range []string{"j-000002", "j-000003"} {
		v := waitTerminal(t, m, id)
		if v.State != StateDone || v.Result == nil {
			t.Fatalf("replayed job %s: state %s error %q", id, v.State, v.Error)
		}
		if v.Result.BestMu == sentinel.BestMu {
			t.Fatalf("replayed job %s served the sentinel instead of re-running", id)
		}
	}
	// The ID sequence continues after the replayed jobs, and a fresh
	// submission of j-000001's spec is served from the cache the journaled
	// result warmed — the sentinel μ proves it never re-ran.
	nv, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if nv.ID != "j-000004" {
		t.Fatalf("post-replay ID %s, want j-000004", nv.ID)
	}
	fv := waitTerminal(t, m, nv.ID)
	if fv.Result == nil || !fv.Result.Cached || fv.Result.BestMu != sentinel.BestMu {
		t.Fatalf("cache was not warmed from the journaled result: %+v", fv.Result)
	}
	m.Close()
	j.Close()

	// Restart 2: everything is terminal now; nothing re-runs, nothing is
	// lost, nothing is duplicated.
	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m = NewManager(Options{Workers: 1, QueueDepth: 8, CacheSize: 8, MaxJobs: 64, Journal: j})
	defer m.Close()
	views := m.List()
	if len(views) != 4 {
		t.Fatalf("second replay restored %d jobs, want 4", len(views))
	}
	for _, v := range views {
		if !v.State.Terminal() {
			t.Fatalf("job %s not terminal after clean shutdown: %s", v.ID, v.State)
		}
	}
}

// TestJournalTruncatedTail: a crash mid-write leaves half a line; replay
// must keep everything before it and drop only the torn record.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	spec, err := Spec{Circuit: "s1196", Strategy: "serial", MaxIters: 10}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: "submit", ID: "j-000001", Time: time.Now(), Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate the torn write.
	if err := appendRaw(path, `{"type":"finish","id":"j-0000`); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := j.Replayed()
	if len(recs) != 1 || recs[0].ID != "j-000001" || recs[0].Type != "submit" {
		t.Fatalf("replay after torn tail: %+v", recs)
	}
}

// overCapSubmit is a submit record a journal written before the rows cap
// (or a corrupt one) can hold: replayed verbatim, its run would allocate a
// billion rows on every start-up.
const overCapSubmit = `{"type":"submit","id":"j-1","spec":{"circuit":"s1196","strategy":"serial","rows":1000000000}}`

// TestJournalReplayNormalizesSpecs: a replayed submit goes through the
// checks Submit applies. The over-cap job comes back failed with the
// error and never runs; the failure is journaled, so a second restart
// restores it as terminal history; a valid job next to it runs once, with
// its spec normalized.
func TestJournalReplayNormalizesSpecs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	valid := `{"type":"submit","id":"j-2","spec":{"circuit":"s1196","strategy":"SERIAL","max_iters":5}}`
	if err := os.WriteFile(path, []byte(overCapSubmit+"\n"+valid+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for restart := 0; restart < 2; restart++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(Options{Workers: 1, Journal: j})
		v, err := m.Get("j-1")
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateFailed || v.Started != nil || v.Result != nil || !strings.Contains(v.Error, "rows") {
			t.Fatalf("restart %d: over-cap job restored as %s (started %v, error %q), want failed on rows",
				restart, v.State, v.Started, v.Error)
		}
		ok := waitTerminal(t, m, "j-2")
		if ok.State != StateDone || (restart == 0 && ok.Spec.Strategy != StrategySerial) {
			t.Fatalf("restart %d: valid job %s with strategy %q, error %q", restart, ok.State, ok.Spec.Strategy, ok.Error)
		}
		m.Close()
		j.Close()
	}
}

// FuzzJournalReplay replays arbitrary journal bytes into a manager that is
// closed at once. Replay must not panic, and every restored job must be
// terminal or carry a spec that Normalize leaves unchanged, the only kind
// a worker may run.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(overCapSubmit + "\n"))
	f.Add([]byte(`{"type":"submit","id":"j-1","spec":{"circuit":"s1196","strategy":"serial","max_iters":3}}
{"type":"start","id":"j-1"}
{"type":"finish","id":"j-1","state":"done","result":{"best_mu":0.5,"iters":3}}
{"type":"submit","id":"j-2","spec":{"bench":"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n","strategy":"ga","objectives":"wire+power+delay"}}
{"type":"finish","id":"j-9","state":"failed"}
{"type":"submit","id":"j-1","spec":{"circuit":"s27"}}
{"type":"submit","id":"j-3","spec":{"circuit":"s1196","strategy":"type3","procs":2}}
{"type":"fin`))
	f.Add([]byte(`{"type":"submit","id":"j-00x","spec":{}}` + "\n" + `{"type":"finish","id":"j-00x","state":"bogus"}`))
	f.Add([]byte("\x00\xff{}\n\n{\"type\":\"submit\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		m := NewManager(Options{Workers: 1, Journal: j})
		defer m.Close()
		m.mu.Lock()
		jobs := make([]*Job, 0, len(m.jobs))
		for _, job := range m.jobs {
			jobs = append(jobs, job)
		}
		m.mu.Unlock()
		for _, job := range jobs {
			job.mu.Lock()
			state, spec := job.state, job.spec
			job.mu.Unlock()
			if state.Terminal() {
				continue
			}
			norm, err := spec.Normalize()
			if err != nil || !reflect.DeepEqual(norm, spec) {
				t.Fatalf("job %s (%s) would run spec %+v: normalized %+v, %v", job.id, state, spec, norm, err)
			}
		}
	})
}
