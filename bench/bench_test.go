package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the smoke test re-execute the test binary as a workload
// process, the way the benchmark re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func loadRepoBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFile checks BENCHMARK.json against its schema limits and
// against the workloads and metrics this program reports.
func TestBenchmarkFile(t *testing.T) {
	b := loadRepoBenchmark(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d (want 2-8)", n, len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q does not match the program's %q, or its why is not one line of at most 200 characters", i, w.Name, workloads[i].Name)
		}
	}

	if len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, program reports %d (want at most 16)", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEndDefs[i].Name || m.Unit != endToEndDefs[i].Unit || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end %d: %s [%s], program reports %s [%s]", i, m.Name, m.Unit, endToEndDefs[i].Name, endToEndDefs[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}

	if len(b.PerLayer) == 0 || len(b.PerLayer) > 128 || len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics, program reports %d (want 1-128)", len(b.PerLayer), len(perLayerDefs))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if m.Name != perLayerDefs[i].Name || m.Unit != perLayerDefs[i].Unit || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: %s [%s], program reports %s [%s]", i, m.Name, m.Unit, perLayerDefs[i].Name, perLayerDefs[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// TestSmoke runs every workload at tiny budgets, untraced and traced, each
// in its own process, and checks the one-line results: no failed
// operation, and every metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	b := loadRepoBenchmark(t)
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-seconds", "0", "-trace", trace, "-trace-dir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		want := map[string]string{}
		if trace == "0" {
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range b.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != len(workloads) {
			t.Fatalf("trace %s: %d result lines for %d workloads", trace, len(lines), len(workloads))
		}
		for i, line := range lines {
			var s summary
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatal(err)
			}
			wl := workloads[i].Name
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", wl, trace, s.Correct, s.Failed, s.Attempted)
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", wl, trace, len(s.Metrics), len(want))
			}
			for name, u := range want {
				if m, ok := s.Metrics[name]; !ok || m.Unit != u {
					t.Errorf("%s trace %s: metric %s missing or not in %s", wl, trace, name, u)
				}
			}
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4),
// which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestVerdict: a median shift inside the bound is "same", beyond it
// "worse" or "better"; a spread wider than the bound is "unresolved".
func TestVerdict(t *testing.T) {
	lower := boundDef{Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{1, 1.01, 0.99, 1}, []float64{1.05, 1.04, 1.06, 1.05}, "same"},
		{[]float64{1, 1.01, 0.99, 1}, []float64{1.2, 1.21, 1.19, 1.2}, "worse"},
		{[]float64{1, 1.01, 0.99, 1}, []float64{0.8, 0.81, 0.79, 0.8}, "better"},
		{[]float64{1, 1.5, 0.7, 1.2}, []float64{1.05, 1.04, 1.06, 1.05}, "unresolved"},
	} {
		if _, _, got := verdict(c.a, c.b, lower); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// TestSelfTimes: overlapping children cover their union once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "workload", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "service.job", StartNs: 10, EndNs: 50},
		{ID: 2, Parent: 0, Name: "service.job", StartNs: 30, EndNs: 70},
		{ID: 3, Parent: 0, Name: "service.job", StartNs: 80, EndNs: 90},
	}
	setSelfTimes(spans)
	if got := spans[0].SelfNs; got != 30 {
		t.Fatalf("root self time %d, want 30", got)
	}
	if got := unaccounted(spans); got != 0.3 {
		t.Fatalf("unaccounted %v, want 0.3", got)
	}
}
