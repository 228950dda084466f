// Package experiments regenerates the paper's evaluation artifacts: the
// Section 4 runtime profile and Tables 1-4. Each experiment prints a text
// table in the paper's layout. A paper-vs-measured record of these tables,
// EXPERIMENTS.md, is ROADMAP item 2's output and is not committed yet.
//
// Iteration counts follow the paper at Scale.Div == 1 (Table 2: serial
// 3500, parallel 4000 + 500 per extra processor; Table 3: serial 5000,
// parallel 6000 + 1000; Table 4: 2500 everywhere). Scaled-down runs divide
// every count by Scale.Div, which preserves the comparisons (all runs in a
// table shrink together) while keeping the harness fast.
package experiments

import (
	"fmt"
	"io"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/mpi"
	"simevo/internal/parallel"
	"simevo/internal/stats"
)

// Scale selects experiment sizes.
type Scale struct {
	Label string
	// Div divides every iteration count (1 = paper scale).
	Div int
	// Circuits for Tables 1-3; T4Circuits for Table 4.
	Circuits   []string
	T4Circuits []string
	// Procs for Tables 1-3 (paper: 2..5); T4Procs for Table 4 (paper:
	// 3..5, one rank is the central store).
	Procs   []int
	T4Procs []int
	// Retries for Table 4 (paper: 50, 100, 150, 200).
	Retries []int
	Seed    uint64
	// Net is the interconnect model (paper: MPICH over fast Ethernet).
	Net mpi.NetModel
}

// PaperScale reproduces the paper's exact experiment sizes. Expect multi-
// hour runtimes on the s3330 rows, as in the original.
func PaperScale() Scale {
	return Scale{
		Label:      "paper",
		Div:        1,
		Circuits:   []string{"s1196", "s1488", "s1494", "s1238", "s3330"},
		T4Circuits: []string{"s1494", "s1238"},
		Procs:      []int{2, 3, 4, 5},
		T4Procs:    []int{3, 4, 5},
		Retries:    []int{50, 100, 150, 200},
		Seed:       2006,
		Net:        mpi.FastEthernet(),
	}
}

// QuickScale divides iteration counts by 10: minutes instead of hours,
// same qualitative shapes.
func QuickScale() Scale {
	s := PaperScale()
	s.Label = "quick (iterations / 10)"
	s.Div = 10
	return s
}

// TinyScale is a smoke-test scale for CI and Go benchmarks.
func TinyScale() Scale {
	s := PaperScale()
	s.Label = "tiny (iterations / 50, two circuits)"
	s.Div = 50
	s.Circuits = []string{"s1238", "s1196"}
	s.T4Circuits = []string{"s1238"}
	s.Procs = []int{2, 3, 5}
	s.T4Procs = []int{3, 5}
	s.Retries = []int{5, 20}
	return s
}

func (s Scale) div(iters int) int {
	d := s.Div
	if d < 1 {
		d = 1
	}
	v := iters / d
	if v < 5 {
		v = 5
	}
	return v
}

// Paper iteration counts (Section 6.2, 6.3).
func (s Scale) serialIters2() int   { return s.div(3500) }
func (s Scale) parIters2(p int) int { return s.div(4000 + 500*(p-2)) }
func (s Scale) serialIters3() int   { return s.div(5000) }
func (s Scale) parIters3(p int) int { return s.div(6000 + 1000*(p-2)) }
func (s Scale) t3Iters() int        { return s.div(2500) }
func (s Scale) problem(name string, obj fuzzy.Objectives, iters int) (*core.Problem, error) {
	ckt, err := gen.Benchmark(name)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(obj)
	cfg.MaxIters = iters
	cfg.Seed = s.Seed
	return core.NewProblem(ckt, cfg)
}

// runSerial executes the serial engine and measures its wall time (the
// serial algorithm is single-threaded, so wall time is directly comparable
// with the parallel virtual times).
func runSerial(prob *core.Problem) (*core.Result, time.Duration) {
	eng := prob.NewEngine(0)
	start := time.Now()
	res := eng.Run()
	return res, time.Since(start)
}

func cells(name string) int {
	ckt, err := gen.Benchmark(name)
	if err != nil {
		return 0
	}
	return ckt.NumMovable()
}

// Profile regenerates the Section 4 experiment: the share of runtime spent
// in each SimE operator for the two- and three-objective serial versions.
func Profile(sc Scale, w io.Writer) error {
	tb := stats.NewTable(
		fmt.Sprintf("Section 4 profile — operator runtime shares (%s scale)", sc.Label),
		"Ckt", "Objectives", "Alloc%", "Eval%", "Select%", "Time")
	for _, name := range sc.Circuits {
		for _, obj := range []fuzzy.Objectives{fuzzy.WirePower, fuzzy.WirePowerDelay} {
			prob, err := sc.problem(name, obj, sc.div(3500))
			if err != nil {
				return err
			}
			eng := prob.NewEngine(0)
			eng.Run()
			e, s, a := eng.Profile().Shares()
			tb.AddRow(name, obj.String(),
				fmt.Sprintf("%.1f", a*100),
				fmt.Sprintf("%.1f", e*100),
				fmt.Sprintf("%.1f", s*100),
				stats.Seconds(eng.Profile().Total()))
		}
	}
	tb.AddComment("paper: allocation 98.4%%/98.5%%, wirelength+goodness ~1%%, delay 0.2%%")
	_, err := fmt.Fprintln(w, tb)
	return err
}

// Table1 regenerates the Type I experiment: serial runtime vs parallel
// runtime for p = 2..5, two objectives. The paper's result: no benefit —
// a roughly constant slowdown, flat in p.
func Table1(sc Scale, w io.Writer) error {
	tb := stats.NewTable(
		fmt.Sprintf("Table 1. Results for Type I Parallel SimE (%s scale)", sc.Label),
		append([]string{"Ckt", "Cells", "Seq"}, procHeaders(sc.Procs)...)...)
	for _, name := range sc.Circuits {
		iters := sc.serialIters2()
		prob, err := sc.problem(name, fuzzy.WirePower, iters)
		if err != nil {
			return err
		}
		_, serialTime := runSerial(prob)

		row := []string{name, fmt.Sprint(cells(name)), stats.Seconds(serialTime)}
		for _, p := range sc.Procs {
			prob, err := sc.problem(name, fuzzy.WirePower, iters)
			if err != nil {
				return err
			}
			res, err := parallel.RunTypeI(prob, parallel.Options{Procs: p, Net: &sc.Net})
			if err != nil {
				return err
			}
			row = append(row, stats.Seconds(res.VirtualTime))
		}
		tb.AddRow(row...)
	}
	tb.AddComment("runtimes in seconds; paper shape: parallel ~1.4x serial, flat in p")
	_, err := fmt.Fprintln(w, tb)
	return err
}

func procHeaders(procs []int) []string {
	out := make([]string, len(procs))
	for i, p := range procs {
		out[i] = fmt.Sprintf("p=%d", p)
	}
	return out
}

// typeIITable is the shared harness for Tables 2 and 3.
func typeIITable(sc Scale, w io.Writer, obj fuzzy.Objectives, title string,
	serialIters int, parIters func(p int) int) error {

	headers := []string{"Ckt", "mu(s)", "Seq"}
	for _, pat := range []string{"F", "R"} {
		for _, p := range sc.Procs {
			headers = append(headers, fmt.Sprintf("%s p=%d", pat, p))
		}
	}
	tb := stats.NewTable(title, headers...)

	for _, name := range sc.Circuits {
		prob, err := sc.problem(name, obj, serialIters)
		if err != nil {
			return err
		}
		serial, serialTime := runSerial(prob)
		row := []string{name, fmt.Sprintf("%.3f", serial.BestMu), stats.Seconds(serialTime)}

		patterns := []parallel.RowPattern{
			parallel.FixedPattern{},
			parallel.NewRandomPattern(sc.Seed),
		}
		for _, pattern := range patterns {
			for _, p := range sc.Procs {
				prob, err := sc.problem(name, obj, parIters(p))
				if err != nil {
					return err
				}
				res, err := parallel.RunTypeII(prob, parallel.Options{
					Procs:    p,
					Net:      &sc.Net,
					Pattern:  pattern,
					TargetMu: serial.BestMu,
				})
				if err != nil {
					return err
				}
				t := res.VirtualTime
				if res.ReachedTarget {
					t = res.TimeToTarget
				}
				row = append(row, stats.TimeCell(t, res.ReachedTarget, res.BestMu, serial.BestMu))
			}
		}
		tb.AddRow(row...)
	}
	tb.AddComment("F = fixed row pattern, R = random row pattern; cells show time to")
	tb.AddComment("best serial quality, or total time with (%% of serial quality) when missed")
	_, err := fmt.Fprintln(w, tb)
	return err
}

// Table2 regenerates the wirelength+power Type II experiment.
func Table2(sc Scale, w io.Writer) error {
	return typeIITable(sc, w, fuzzy.WirePower,
		fmt.Sprintf("Table 2. Wirelength-Power Type II Parallel SimE (%s scale)", sc.Label),
		sc.serialIters2(), sc.parIters2)
}

// Table3 regenerates the wirelength+power+delay Type II experiment.
func Table3(sc Scale, w io.Writer) error {
	return typeIITable(sc, w, fuzzy.WirePowerDelay,
		fmt.Sprintf("Table 3. Wirelength-Power-Delay Type II Parallel SimE (%s scale)", sc.Label),
		sc.serialIters3(), sc.parIters3)
}

// Table4 regenerates the Type III experiment: runtimes for several retry
// thresholds and processor counts. The paper's result: runtimes track the
// serial algorithm; higher retry thresholds give slightly better quality.
func Table4(sc Scale, w io.Writer) error {
	tb := stats.NewTable(
		fmt.Sprintf("Table 4. Results for Type III Parallel SimE (%s scale)", sc.Label),
		append([]string{"Ckt", "mu(s)", "Seq", "Retry"}, procHeaders(sc.T4Procs)...)...)

	for _, name := range sc.T4Circuits {
		iters := sc.t3Iters()
		prob, err := sc.problem(name, fuzzy.WirePower, iters)
		if err != nil {
			return err
		}
		serial, serialTime := runSerial(prob)

		for i, retry := range sc.Retries {
			row := []string{"", "", "", fmt.Sprint(retry)}
			if i == 0 {
				row[0], row[1], row[2] = name, fmt.Sprintf("%.3f", serial.BestMu), stats.Seconds(serialTime)
			}
			for _, p := range sc.T4Procs {
				prob, err := sc.problem(name, fuzzy.WirePower, iters)
				if err != nil {
					return err
				}
				res, err := parallel.RunTypeIII(prob, parallel.Options{
					Procs: p, Net: &sc.Net, Retry: retry,
				})
				if err != nil {
					return err
				}
				cell := stats.Seconds(res.VirtualTime)
				if res.BestMu > serial.BestMu {
					cell += "*" // quality exceeded serial, as the paper observes
				}
				row = append(row, cell)
			}
			tb.AddRow(row...)
		}
	}
	tb.AddComment("* = parallel quality exceeded the serial run (paper: occurs at higher retry values)")
	_, err := fmt.Fprintln(w, tb)
	return err
}

// All runs every experiment in paper order.
func All(sc Scale, w io.Writer) error {
	steps := []func(Scale, io.Writer) error{Profile, Table1, Table2, Table3, Table4}
	for _, f := range steps {
		if err := f(sc, w); err != nil {
			return err
		}
	}
	return nil
}
