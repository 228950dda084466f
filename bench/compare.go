package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// boundDef is one end-to-end metric with its regression bound: the share
// of the baseline median by which it may worsen.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRuns reads every result file a pattern names.
func loadRuns(pattern string) ([]*resultFile, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result file matches %q", pattern)
	}
	var out []*resultFile
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(blob, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &rf)
	}
	return out, nil
}

// samples returns one workload's values of a metric: one per run, or, when
// a side holds a single run, that run's raw per-operation values.
func samples(runs []*resultFile, workload, metricName string) []float64 {
	var recs []*record
	for _, rf := range runs {
		for _, rec := range rf.Workloads {
			if rec.Workload == workload && !rf.Trace {
				recs = append(recs, rec)
			}
		}
	}
	if len(recs) != 1 {
		var out []float64
		for _, rec := range recs {
			if m, ok := rec.Metrics[metricName]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	rec := recs[0]
	var out []float64
	switch metricName {
	case "setup_s":
		out = rec.Setups
	case "peak_rss_mb":
		out = []float64{rec.PeakRSSMB}
	default:
		for _, op := range rec.Ops {
			switch {
			case metricName == "time_to_result_s":
				out = append(out, op.WallS)
			case op.Cached:
			case metricName == "virtual_s" && op.VirtualS > 0:
				out = append(out, op.VirtualS)
			case metricName == "best_mu":
				out = append(out, op.Mu)
			}
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict compares side b against the baseline side a for one metric.
// The spread of a side is its interquartile range as a share of its
// median. A median change within the bound is "same"; beyond it, "worse"
// or "better". Where a side spreads wider than the bound the medians cannot
// be told apart: "unresolved", unless every run of b beats (or loses to)
// every run of a.
func verdict(a, b []float64, def boundDef) (change, spread float64, v string) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	spread = max(ratio(aq3-aq1, amed), ratio(bq3-bq1, bmed))
	change = ratio(bmed-amed, amed)
	higher := def.Better == "higher"
	worse := change
	if higher {
		worse = -change
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				allBetter = false
			}
			if (higher && y >= x) || (!higher && y <= x) {
				allWorse = false
			}
		}
	}
	switch {
	case spread > def.Bound && allBetter:
		return change, spread, "better"
	case spread > def.Bound && allWorse:
		return change, spread, "worse"
	case spread > def.Bound:
		return change, spread, "unresolved"
	case worse > def.Bound:
		return change, spread, "worse"
	case -worse > def.Bound:
		return change, spread, "better"
	}
	return change, spread, "same"
}

// compare prints, per workload and end-to-end metric, each side's median
// and quartiles and the verdict against the BENCHMARK.json bound. It
// reports whether no metric came out worse or unresolved.
func compare(w io.Writer, bench *benchmarkFile, a, b []*resultFile) bool {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tspread\tbound\tverdict")
	ok := true
	for _, wl := range workloads {
		for _, def := range bench.EndToEnd {
			av, bv := samples(a, wl.Name, def.Name), samples(b, wl.Name, def.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			change, spread, v := verdict(av, bv, def)
			if v == "worse" || v == "unresolved" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n", wl.Name, def.Name,
				describe(av), describe(bv), 100*change, 100*spread, 100*def.Bound, v)
		}
	}
	tw.Flush()
	return ok
}

func describe(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}
