// Command simevo-ladder is the repository's end-to-end benchmark: five
// workloads, from serial SimE to the job service, each measured from
// outside the code under test — by timing calls into public functions and
// reading the counters the layers already export.
//
//	go run . -workload serial-s3330-wpd -seed 1 -seconds 20 -trace 0
//	go run . -seed 2006 -out run.json          # every workload
//	go run . -seed 2006 -trace 1               # per-layer metrics, spans in .bench_build/
//	go run . -compare 'a/*.json' 'b/*.json'    # two sets of result files
//
// Every workload runs in a child process of its own, so its peak RSS and
// the process-wide telemetry belong to that workload alone. The last line
// of standard output is one JSON object per workload: correct, attempted,
// failed, and the end-to-end metrics (or, traced, the per-layer metrics).
// See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process started to run one workload.
const childEnv = "SIMEVO_LADDER_CHILD"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// resultFile is what -out writes: the measurement context and every
// workload's record, raw per-operation values included, so later runs can
// be paired with this one.
type resultFile struct {
	GoVersion  string    `json:"go_version"`
	GoMaxProcs int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	Commit     string    `json:"commit"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Workloads  []*record `json:"workloads"`
}

// summary is the one-line result per workload.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simevo-ladder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload)")
	seed := fs.Uint64("seed", 2006, "seed the workload inputs are made from")
	seconds := fs.Float64("seconds", 20, "measurement budget per workload, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", "", "write the result file (raw values included) here")
	traceDir := fs.String("trace-dir", ".bench_build", "directory for the traced run's spans")
	smoke := fs.Bool("smoke", false, "tiny budgets, one repetition (tests)")
	cmp := fs.Bool("compare", false, "compare two sets of result files: -compare A B (glob patterns)")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args(), *benchPath, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	var selected []*workload
	for _, wl := range workloads {
		if *name == "" || wl.Name == *name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if os.Getenv(childEnv) != "" {
		rec := runWorkload(selected[0], *seed, budget, *trace == 1, *smoke, *traceDir)
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	rf := &resultFile{GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Commit: commit(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	status := 0
	var lines []summary
	for _, wl := range selected {
		childArgs := []string{"-workload", wl.Name, "-seed", strconv.FormatUint(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace),
			"-trace-dir", *traceDir, "-smoke=" + strconv.FormatBool(*smoke)}
		rec, err := runChild(childArgs, budget, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", wl.Name, err)
			status = 1
			continue
		}
		if !rf.Trace {
			rec.Metrics["peak_rss_mb"] = metric{rec.PeakRSSMB, "MB"}
		}
		for _, f := range rec.Failures {
			fmt.Fprintf(stderr, "%s: FAILED %s\n", wl.Name, f)
		}
		if rec.Failed > 0 {
			status = 1
		}
		rf.Workloads = append(rf.Workloads, rec)
		lines = append(lines, summary{rec.Failed == 0, rec.Attempted, rec.Failed, rec.Metrics})
	}
	if *out != "" {
		blob, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			status = 1
		}
	}
	enc := json.NewEncoder(stdout)
	for _, s := range lines {
		if err := enc.Encode(s); err != nil {
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process (this executable with the
// given flags) and returns its record with the child's peak RSS.
func runChild(args []string, budget time.Duration, stderr io.Writer) (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A run takes about its budget (twice that traced) plus set-up; the
	// deadline only stops a wedged child.
	ctx, cancel := context.WithTimeout(context.Background(), 3*budget+100*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		return nil, fmt.Errorf("workload output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rec.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &rec, nil
}

// commit names the checked-out commit, or "unknown" outside a git work
// tree. Git may not search above the current directory.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runCompare(args []string, benchPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: -compare A B (each a result file or a glob of them)")
		return 2
	}
	bench, err := loadBenchmark(benchPath)
	var a, b []*resultFile
	if err == nil {
		a, err = loadRuns(args[0])
	}
	if err == nil {
		b, err = loadRuns(args[1])
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if !compare(stdout, bench, a, b) {
		return 1
	}
	return 0
}
