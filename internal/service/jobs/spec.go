// Package jobs implements the placement job manager behind the simevo
// service: a bounded worker pool that schedules SimE runs (serial, Type
// I/II/III) and the comparison metaheuristics (SA, GA, TS) over named or
// uploaded benchmark circuits, an in-memory job store with cooperative
// cancellation, and an LRU result cache keyed by the normalized job
// specification — (circuit, config, strategy, seed).
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// Strategy names accepted by Spec.Strategy.
const (
	StrategySerial  = "serial"
	StrategyTypeI   = "type1"
	StrategyTypeII  = "type2"
	StrategyTypeIII = "type3"
	StrategySA      = "sa"
	StrategyGA      = "ga"
	StrategyTS      = "ts"
)

// Transport names accepted by Spec.Transport.
const (
	TransportSim = "sim" // in-process virtual-time cluster (default)
	TransportTCP = "tcp" // registered simevo-worker processes over TCP
)

// Caps on the request fields that size what a job allocates up front. A
// placement holds per-row slices, and a parallel strategy runs one engine
// per rank, so one request above these could exhaust the server's memory.
// Both sit far above every legitimate use: the 100k-cell tier and the
// Type II row patterns need a few hundred rows, and the strategies are
// studied at a handful of ranks. MaxIters is deliberately uncapped:
// cancellation bounds a long run, and a huge budget is how a caller asks
// for a run that ends only when cancelled (the jobs and API tests submit
// 10,000,000 iterations as such a blocker).
const (
	MaxRows  = 10000
	MaxProcs = 64
)

// Strategies lists the accepted strategy names.
func Strategies() []string {
	return []string{StrategySerial, StrategyTypeI, StrategyTypeII,
		StrategyTypeIII, StrategySA, StrategyGA, StrategyTS}
}

// Spec is a placement job request. Exactly one of Circuit and Bench names
// the design; everything else parameterizes the optimizer. The zero value
// of every optional field means "use the default", so identical requests
// normalize to identical specs and hit the result cache.
type Spec struct {
	// Circuit names a built-in benchmark (see gen.Catalog).
	Circuit string `json:"circuit,omitempty"`
	// Bench is an inline ISCAS-89 .bench netlist (uploaded circuit).
	Bench string `json:"bench,omitempty"`
	// Strategy selects the optimizer: serial | type1 | type2 | type3 for
	// SimE, sa | ga | ts for the comparison metaheuristics.
	Strategy string `json:"strategy"`
	// Objectives is the cost term set as a plus-separated term list:
	// "wire", "wire+power" (default), "wire+power+delay",
	// "wire+power+congestion", or "wire+power+delay+congestion"
	// ("congest" is accepted for "congestion"; term order is free and
	// normalizes to the canonical spelling). The metaheuristics support
	// only "wire+power".
	Objectives string `json:"objectives,omitempty"`
	// MaxIters bounds SimE iterations, TS iterations, or GA generations
	// (default 350, GA 100). SA ignores it — see Moves.
	MaxIters int `json:"max_iters,omitempty"`
	// Moves is the SA move budget (default 20000).
	Moves int `json:"moves,omitempty"`
	// Seed drives all stochastic decisions; runs are reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// Bias is the SimE selection bias B (SimE strategies only).
	Bias float64 `json:"bias,omitempty"`
	// TargetMu stops a run once the best μ(s) reaches it (0 disables;
	// SimE strategies only).
	TargetMu float64 `json:"target_mu,omitempty"`
	// Rows overrides the placement row count (0: layout default).
	Rows int `json:"rows,omitempty"`
	// Procs is the cluster size for type1/type2/type3 (default 4).
	Procs int `json:"procs,omitempty"`
	// Transport selects where a parallel strategy's ranks run: "sim" (the
	// default) for the in-process virtual-time cluster, "tcp" to farm the
	// slave ranks out to simevo-worker processes registered with the
	// service (the service itself is rank 0). Requires the server to run
	// with a cluster listener and Procs-1 registered workers.
	Transport string `json:"transport,omitempty"`
	// Pattern is the Type II row pattern: "fixed" (default) or "random".
	Pattern string `json:"pattern,omitempty"`
	// Retry is the Type III retry threshold (0: strategy default).
	Retry int `json:"retry,omitempty"`
	// Diversify gives each Type III searcher a distinct allocation order.
	Diversify bool `json:"diversify,omitempty"`
	// SyncExchange selects the blocking Type III exchange: a consulting
	// searcher waits for the store's news and adopts a better solution
	// outright. Default false: the asynchronous exchange with speculative
	// adoption. Both modes speak the same post/poll/news frames.
	SyncExchange bool `json:"sync_exchange,omitempty"`
	// MaxRetries is how many times a failed run is retried (with capped
	// exponential backoff between attempts) before the job is marked
	// failed. It shapes scheduling, not the search, so like
	// IncludePlacement it is excluded from the cache key.
	MaxRetries int `json:"max_retries,omitempty"`
	// DisableIncremental forces the from-scratch reference evaluation
	// instead of the incremental net-length mirror. The search trajectory is
	// bitwise identical either way — this is the escape hatch / A-B knob
	// for validating the incremental machinery in production, at full-
	// recompute cost per iteration.
	DisableIncremental bool `json:"disable_incremental,omitempty"`
	// IncludePlacement adds the final row-by-row cell placement to the
	// result payload. It does not affect the search (or the cache key).
	IncludePlacement bool `json:"include_placement,omitempty"`
}

// strategyAliases maps accepted spellings to canonical strategy names.
var strategyAliases = map[string]string{
	"serial": StrategySerial,
	"type1":  StrategyTypeI, "typei": StrategyTypeI, "i": StrategyTypeI,
	"type2": StrategyTypeII, "typeii": StrategyTypeII, "ii": StrategyTypeII,
	"type3": StrategyTypeIII, "typeiii": StrategyTypeIII, "iii": StrategyTypeIII,
	"sa": StrategySA, "ga": StrategyGA, "ts": StrategyTS,
}

// objectiveTerms maps accepted objective term spellings to their bits.
var objectiveTerms = map[string]fuzzy.Objectives{
	"wire":       fuzzy.Wire,
	"power":      fuzzy.Power,
	"delay":      fuzzy.Delay,
	"congestion": fuzzy.Congest,
	"congest":    fuzzy.Congest, // common short spelling
}

// objectiveSets lists the supported term combinations, keyed by set. The
// canonical spelling (the fuzzy.Objectives String) is what a normalized
// spec carries, so any term order or alias hits the same cache key.
var objectiveSets = map[fuzzy.Objectives]string{
	fuzzy.Wire:                  fuzzy.Wire.String(),
	fuzzy.WirePower:             fuzzy.WirePower.String(),
	fuzzy.WirePowerDelay:        fuzzy.WirePowerDelay.String(),
	fuzzy.WirePowerCongest:      fuzzy.WirePowerCongest.String(),
	fuzzy.WirePowerDelayCongest: fuzzy.WirePowerDelayCongest.String(),
}

// supportedObjectives lists the canonical combination spellings for error
// messages, in increasing-set order.
func supportedObjectives() []string {
	return []string{
		fuzzy.Wire.String(), fuzzy.WirePower.String(), fuzzy.WirePowerDelay.String(),
		fuzzy.WirePowerCongest.String(), fuzzy.WirePowerDelayCongest.String(),
	}
}

// parseObjectives resolves a plus-separated objective list to its set and
// canonical spelling. Unknown terms and unsupported combinations fail
// fast with the accepted vocabulary in the error.
func parseObjectives(s string) (fuzzy.Objectives, string, error) {
	var set fuzzy.Objectives
	for _, term := range strings.Split(strings.ToLower(s), "+") {
		term = strings.TrimSpace(term)
		bits, ok := objectiveTerms[term]
		if !ok {
			return 0, "", fmt.Errorf("jobs: unknown objective term %q in %q (have wire, power, delay, congestion)", term, s)
		}
		set |= bits
	}
	canon, ok := objectiveSets[set]
	if !ok {
		return 0, "", fmt.Errorf("jobs: unsupported objective combination %q (have %s)",
			s, strings.Join(supportedObjectives(), ", "))
	}
	return set, canon, nil
}

func (s Spec) isParallel() bool {
	return s.Strategy == StrategyTypeI || s.Strategy == StrategyTypeII || s.Strategy == StrategyTypeIII
}

func (s Spec) isMetaheuristic() bool {
	return s.Strategy == StrategySA || s.Strategy == StrategyGA || s.Strategy == StrategyTS
}

// objectives returns the parsed objective set of a normalized spec.
func (s Spec) objectives() fuzzy.Objectives {
	set, _, _ := parseObjectives(s.Objectives)
	return set
}

// total returns the progress denominator: the iteration/generation budget,
// or the move budget for SA.
func (s Spec) total() int {
	if s.Strategy == StrategySA {
		return s.Moves
	}
	return s.MaxIters
}

// Normalize validates a request and fills defaults, returning the
// canonical spec used for scheduling and cache keying.
func (s Spec) Normalize() (Spec, error) {
	if (s.Circuit == "") == (s.Bench == "") {
		return Spec{}, fmt.Errorf("jobs: exactly one of circuit and bench is required")
	}
	if s.Circuit != "" {
		if _, err := gen.CatalogParams(s.Circuit); err != nil {
			return Spec{}, fmt.Errorf("jobs: unknown circuit %q (have %v)", s.Circuit, gen.Catalog())
		}
	}
	canon, ok := strategyAliases[strings.ToLower(s.Strategy)]
	if !ok {
		return Spec{}, fmt.Errorf("jobs: unknown strategy %q (have %v)", s.Strategy, Strategies())
	}
	s.Strategy = canon

	if s.Objectives == "" {
		s.Objectives = "wire+power"
	}
	set, canon, err := parseObjectives(s.Objectives)
	if err != nil {
		return Spec{}, err
	}
	s.Objectives = canon
	if s.isMetaheuristic() && set != fuzzy.WirePower {
		return Spec{}, fmt.Errorf("jobs: strategy %s supports only wire+power objectives", s.Strategy)
	}

	if s.MaxIters < 0 || s.Moves < 0 || s.Rows < 0 || s.Procs < 0 || s.Retry < 0 || s.MaxRetries < 0 {
		return Spec{}, fmt.Errorf("jobs: negative budgets are invalid")
	}
	if s.Rows > MaxRows {
		return Spec{}, fmt.Errorf("jobs: rows %d above the limit of %d", s.Rows, MaxRows)
	}
	if s.Procs > MaxProcs {
		return Spec{}, fmt.Errorf("jobs: procs %d above the limit of %d", s.Procs, MaxProcs)
	}
	switch {
	case s.Strategy == StrategySA:
		// SA is budgeted in moves; the iteration knobs do not apply.
		s.MaxIters = 0
		if s.Moves == 0 {
			s.Moves = 20000
		}
	case s.MaxIters == 0 && s.Strategy == StrategyGA:
		s.MaxIters = 100
	case s.MaxIters == 0:
		s.MaxIters = 350
	}
	if s.Strategy != StrategySA {
		s.Moves = 0
	}
	if s.isMetaheuristic() {
		// Ignored by SA/GA/TS; zero them so equivalent requests share a
		// cache key instead of silently diverging.
		s.TargetMu = 0
		s.Bias = 0
	}

	if s.isParallel() {
		if s.Procs == 0 {
			s.Procs = 4
		}
		min := 2
		if s.Strategy == StrategyTypeIII {
			min = 3
		}
		if s.Procs < min {
			return Spec{}, fmt.Errorf("jobs: strategy %s needs procs >= %d, got %d", s.Strategy, min, s.Procs)
		}
		if s.Transport == "" {
			s.Transport = TransportSim
		}
		s.Transport = strings.ToLower(s.Transport)
		if s.Transport != TransportSim && s.Transport != TransportTCP {
			return Spec{}, fmt.Errorf("jobs: unknown transport %q (have %s, %s)", s.Transport, TransportSim, TransportTCP)
		}
	} else {
		s.Procs = 0
		// In-process strategies accept only the (redundant) "sim"; a tcp
		// request on them would otherwise be silently ignored.
		s.Transport = strings.ToLower(s.Transport)
		if s.Transport != "" && s.Transport != TransportSim {
			return Spec{}, fmt.Errorf("jobs: strategy %s runs in-process; transport %q applies only to type1/type2/type3", s.Strategy, s.Transport)
		}
		s.Transport = ""
	}

	if s.Strategy == StrategyTypeII {
		if s.Pattern == "" {
			s.Pattern = "fixed"
		}
		s.Pattern = strings.ToLower(s.Pattern)
		if s.Pattern != "fixed" && s.Pattern != "random" {
			return Spec{}, fmt.Errorf("jobs: unknown pattern %q (have fixed, random)", s.Pattern)
		}
	} else {
		s.Pattern = ""
	}
	if s.Strategy != StrategyTypeIII {
		s.Retry = 0
		s.Diversify = false
		s.SyncExchange = false
	}
	return s, nil
}

// Fingerprint is the result-cache key: a digest of every normalized field
// that influences the search outcome. IncludePlacement and MaxRetries are
// deliberately excluded — they shape the response payload and the
// scheduling, not the result.
func (s Spec) Fingerprint() string {
	key := s
	key.IncludePlacement = false
	key.MaxRetries = 0
	if key.Bench != "" {
		// Uploaded netlists can be large; key on their digest.
		sum := sha256.Sum256([]byte(key.Bench))
		key.Bench = hex.EncodeToString(sum[:])
	}
	blob, err := json.Marshal(key)
	if err != nil {
		panic("jobs: spec not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}
