package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// le returns the rendered upper bound of finite bucket i, matching the
// exposition's float formatting.
func le(i int) string {
	return strconv.FormatFloat(float64(uint64(1)<<uint(i)), 'g', -1, 64)
}

// TestExpositionGolden pins the exact text exposition rendering: family
// ordering, HELP/TYPE comments, label sorting and merging, cumulative
// histogram buckets, and the _sum/_count pair.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests by status.", "code", "500").Add(2)
	r.Counter("test_requests_total", "Requests by status.", "code", "200").Add(7)
	r.Gauge("test_depth", "Queue depth.").Set(-3)
	r.GaugeFunc("test_temp", "A derived value.", func() float64 { return 1.5 })
	h := r.Histogram("test_latency_ns", "Phase latency.", "phase", "eval")
	h.Observe(1)         // le="1"
	h.Observe(2)         // le="2": boundary sample stays in its own bucket
	h.Observe(3)         // le="4"
	h.Observe(1 << 38)   // last finite bucket
	h.Observe(1<<38 + 1) // +Inf
	h.Observe(3)         // le="4"
	h.Observe(3)         // le="4"
	h.Observe(-5)        // clamps to 0, le="1"

	var b strings.Builder
	fmt.Fprintf(&b, "# HELP test_requests_total Requests by status.\n")
	fmt.Fprintf(&b, "# TYPE test_requests_total counter\n")
	fmt.Fprintf(&b, "test_requests_total{code=\"200\"} 7\n")
	fmt.Fprintf(&b, "test_requests_total{code=\"500\"} 2\n")
	fmt.Fprintf(&b, "# HELP test_depth Queue depth.\n")
	fmt.Fprintf(&b, "# TYPE test_depth gauge\n")
	fmt.Fprintf(&b, "test_depth -3\n")
	fmt.Fprintf(&b, "# HELP test_temp A derived value.\n")
	fmt.Fprintf(&b, "# TYPE test_temp gauge\n")
	fmt.Fprintf(&b, "test_temp 1.5\n")
	fmt.Fprintf(&b, "# HELP test_latency_ns Phase latency.\n")
	fmt.Fprintf(&b, "# TYPE test_latency_ns histogram\n")
	// Samples by bucket: {1, -5→0} under le=1, {2} under le=2, {3,3,3}
	// under le=4, {2^38} in the last finite bucket, {2^38+1} in +Inf.
	cum := map[int]uint64{0: 2, 1: 3, 2: 6, 38: 7} // index -> cumulative count after it
	var running uint64
	for i := 0; i < histBuckets-1; i++ {
		if c, ok := cum[i]; ok {
			running = c
		}
		fmt.Fprintf(&b, "test_latency_ns_bucket{phase=\"eval\",le=\"%s\"} %d\n", le(i), running)
	}
	fmt.Fprintf(&b, "test_latency_ns_bucket{phase=\"eval\",le=\"+Inf\"} 8\n")
	fmt.Fprintf(&b, "test_latency_ns_sum{phase=\"eval\"} %d\n", 1+2+3+(1<<38)+(1<<38)+1+6+0)
	fmt.Fprintf(&b, "test_latency_ns_count{phase=\"eval\"} 8\n")

	var got strings.Builder
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != b.String() {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got.String(), b.String())
	}
}

// TestHistogramBoundaries checks the log₂ bucketing invariant directly: a
// sample lands in the bucket whose upper bound is the smallest power of
// two >= the sample.
func TestHistogramBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 38, 38}, {1<<38 + 1, 39}, {math.MaxInt64, 39},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

var (
	nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// validateExposition is a promtool-style checker for text exposition
// v0.0.4: comment structure, metric and label name syntax, parseable
// values, samples only under a declared family, cumulative histogram
// buckets, and _count consistency with the +Inf bucket.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	type fam struct{ name, typ string }
	var cur fam
	helpSeen := map[string]bool{}
	var lastBucket float64 // previous cumulative count within the current histogram series
	var lastLe float64
	var lastSeries string
	infCount := map[string]float64{}
	countVal := map[string]float64{}

	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: blank line", ln+1)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if !nameRe.MatchString(parts[0]) {
				t.Errorf("line %d: bad metric name %q", ln+1, parts[0])
			}
			if helpSeen[parts[0]] {
				t.Errorf("line %d: duplicate HELP for %q", ln+1, parts[0])
			}
			helpSeen[parts[0]] = true
			cur = fam{name: parts[0]}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Errorf("line %d: malformed TYPE line %q", ln+1, line)
				continue
			}
			if parts[0] != cur.name {
				t.Errorf("line %d: TYPE for %q without preceding HELP", ln+1, parts[0])
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown type %q", ln+1, parts[1])
			}
			cur.typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free comment
		}

		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable sample %q", ln+1, line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("line %d: unparseable value %q: %v", ln+1, valStr, err)
			continue
		}
		if labels != "" {
			for _, lv := range strings.Split(labels[1:len(labels)-1], ",") {
				if !labelRe.MatchString(lv) {
					t.Errorf("line %d: bad label pair %q", ln+1, lv)
				}
			}
		}

		base := name
		suffix := ""
		if cur.typ == "histogram" {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, sfx) && strings.TrimSuffix(name, sfx) == cur.name {
					base, suffix = cur.name, sfx
					break
				}
			}
		}
		if base != cur.name {
			t.Errorf("line %d: sample %q outside its declared family %q", ln+1, name, cur.name)
			continue
		}

		switch {
		case cur.typ == "counter":
			if val < 0 {
				t.Errorf("line %d: counter %s is negative: %v", ln+1, name, val)
			}
		case suffix == "_bucket":
			leIdx := strings.LastIndex(labels, `le="`)
			if leIdx < 0 {
				t.Errorf("line %d: bucket without le label", ln+1)
				continue
			}
			leStr := labels[leIdx+4 : strings.LastIndex(labels, `"`)]
			// Series key with the le pair stripped, so it can be matched
			// against the _count sample's label set.
			rest := strings.TrimSuffix(labels[:leIdx], ",")
			if rest == "{" {
				rest = ""
			}
			series := name + rest
			leVal := math.Inf(1)
			if leStr != "+Inf" {
				if leVal, err = strconv.ParseFloat(leStr, 64); err != nil {
					t.Errorf("line %d: bad le %q", ln+1, leStr)
					continue
				}
			}
			if series != lastSeries {
				lastSeries, lastBucket, lastLe = series, 0, math.Inf(-1)
			}
			if leVal <= lastLe {
				t.Errorf("line %d: le %v not increasing (after %v)", ln+1, leVal, lastLe)
			}
			if val < lastBucket {
				t.Errorf("line %d: bucket count %v below previous %v (not cumulative)", ln+1, val, lastBucket)
			}
			lastBucket, lastLe = val, leVal
			if math.IsInf(leVal, 1) {
				infCount[series] = val
			}
		case suffix == "_count":
			key := name[:len(name)-len("_count")] + "_bucket" + strings.TrimSuffix(labels, "}")
			countVal[key] = val
		}
	}
	for series, want := range countVal {
		if got, ok := infCount[series]; !ok || got != want {
			t.Errorf("histogram %s: +Inf bucket %v != _count %v", series, got, want)
		}
	}
}

// TestExpositionParses runs the promtool-style validator over the Default
// registry with every package metric touched, the same output /metrics
// serves in production.
func TestExpositionParses(t *testing.T) {
	EnginePhaseEvalNs.Observe(12345)
	EngineIterations.Inc()
	EngineDirtyNets.Observe(17)
	ScanVacancies.Add(100)
	ScanPrunedSuffix.Add(60)
	CostDirtyEvals.Inc()
	TimingConeCells.Observe(9)
	TransportSentFrames.Inc()
	TransportSentBytes.Add(512)
	ExchangeRoundType2Ns.Observe(1_000_000)
	JobsSubmitted.Inc()
	JobQueueDepth.Set(3)
	SSESubscribers.Add(1)
	SSESubscribers.Add(-1)
	sentMsgs, sentBytes, recvMsgs, recvBytes := RankTraffic(1)
	sentMsgs.Inc()
	sentBytes.Add(64)
	recvMsgs.Inc()
	recvBytes.Add(64)

	var b strings.Builder
	if err := Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	validateExposition(t, text)

	for _, want := range []string{
		"# TYPE simevo_engine_phase_ns histogram",
		`simevo_engine_phase_ns_bucket{phase="evaluate",le="+Inf"}`,
		"# TYPE simevo_scan_pruned_total counter",
		`simevo_scan_pruned_total{by="suffix_bound"}`,
		`simevo_transport_rank_messages_total{rank="1",dir="sent"} 1`,
		`simevo_transport_rank_bytes_total{rank="1",dir="recv"} 64`,
		"# TYPE simevo_jobs_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRankTrafficIdempotent checks that re-acquiring a rank's counters
// returns the same collectors (get-or-create), so repeated cluster
// Acquire calls accumulate instead of resetting.
func TestRankTrafficIdempotent(t *testing.T) {
	aSM, _, _, aRB := RankTraffic(7)
	bSM, _, _, bRB := RankTraffic(7)
	if aSM != bSM || aRB != bRB {
		t.Fatal("RankTraffic(7) returned distinct collectors on re-acquire")
	}
}

// TestConcurrentUpdates hammers all three primitives plus registration
// and rendering from many goroutines; run under -race this is the data
// race guard, and the final counts check no increment is lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const iters = 10_000

	ctr := r.Counter("conc_total", "c")
	g := r.Gauge("conc_gauge", "g")
	h := r.Histogram("conc_hist", "h")

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				ctr.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(j % 1024))
				// Get-or-create of a shared name must be safe too.
				r.Counter("conc_shared_total", "s", "who", "all").Inc()
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			for j := 0; j < 50; j++ {
				b.Reset()
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := ctr.Load(); got != goroutines*iters {
		t.Errorf("counter lost updates: got %d, want %d", got, goroutines*iters)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge should balance to 0, got %d", got)
	}
	if got := h.Count(); got != goroutines*iters {
		t.Errorf("histogram lost samples: got %d, want %d", got, goroutines*iters)
	}
	if got := r.Counter("conc_shared_total", "s", "who", "all").Load(); got != goroutines*iters {
		t.Errorf("shared counter lost updates: got %d, want %d", got, goroutines*iters)
	}
}

// TestHotPathZeroAlloc is the tentpole's zero-overhead guard: every
// hot-path update op must never allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	checks := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(42) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
	}
	for _, chk := range checks {
		if allocs := testing.AllocsPerRun(1000, chk.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", chk.name, allocs)
		}
	}
}

// BenchmarkCounterInc and BenchmarkHistogramObserve document the
// single-digit-nanosecond hot-path cost claims.
func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
