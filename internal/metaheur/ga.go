package metaheur

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/mpi"
	"simevo/internal/netlist"
	"simevo/internal/parallel"
	"simevo/internal/rng"
)

// GAConfig parameterizes the genetic algorithm.
type GAConfig struct {
	// Pop is the population size (0: 24).
	Pop int
	// Generations is the generation budget.
	Generations int
	// CxProb is the crossover probability per offspring (0: 0.9).
	CxProb float64
	// MutSwaps is the number of mutation transpositions per offspring
	// (0: 2).
	MutSwaps int
	// Elite preserves the best individuals unchanged (0: 2).
	Elite int
	// Tournament is the selection tournament size (0: 3).
	Tournament int
	// Seed is XORed into the problem seed to derive the GA's random
	// stream.
	Seed uint64
}

func (c *GAConfig) defaults() {
	if c.Pop == 0 {
		c.Pop = 24
	}
	if c.CxProb == 0 {
		c.CxProb = 0.9
	}
	if c.MutSwaps == 0 {
		c.MutSwaps = 2
	}
	if c.Elite == 0 {
		c.Elite = 2
	}
	if c.Tournament == 0 {
		c.Tournament = 3
	}
}

// The GA genome is a permutation of the movable cells; decoding deals the
// permutation greedily into the narrowest row, exactly as the random
// initial placement does, so every genome is a legal placement and the
// width constraint stays near-satisfied by construction.
type genome struct {
	perm    []netlist.CellID
	fitness float64 // μ(s); evaluated lazily
}

// decode builds the placement a genome represents.
func decodeGenome(prob *core.Problem, perm []netlist.CellID) *layout.Placement {
	place := layout.New(prob.Ckt, prob.Cfg.NumRows)
	widths := make([]int, place.NumRows())
	for _, id := range perm {
		best := 0
		for r := 1; r < place.NumRows(); r++ {
			if widths[r] < widths[best] {
				best = r
			}
		}
		place.AppendToRow(best, id)
		widths[best] += prob.Ckt.Cells[id].Width
	}
	place.Recompute()
	return place
}

// gaState is one GA population (an island in the parallel version).
type gaState struct {
	prob *core.Problem
	cfg  GAConfig
	ev   *evaluator
	rnd  *rng.R
	pop  []genome

	bestMu    float64
	bestCosts fuzzy.Costs
	best      *layout.Placement
}

func newGA(prob *core.Problem, cfg GAConfig, stream uint64) *gaState {
	g := &gaState{
		prob: prob, cfg: cfg,
		ev:  newEvaluator(prob),
		rnd: rng.NewStream(prob.Cfg.Seed^cfg.Seed, stream),
	}
	base := prob.Ckt.Movable()
	for i := 0; i < cfg.Pop; i++ {
		perm := append([]netlist.CellID(nil), base...)
		g.rnd.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		g.pop = append(g.pop, genome{perm: perm, fitness: -1})
	}
	g.evaluateAll()
	return g
}

func (g *gaState) evaluate(ind *genome) {
	if ind.fitness >= 0 {
		return
	}
	place := decodeGenome(g.prob, ind.perm)
	g.ev.full(place)
	ind.fitness = g.ev.mu(place)
	if ind.fitness > g.bestMu || g.best == nil {
		g.bestMu = ind.fitness
		g.bestCosts = g.ev.costs()
		g.best = place
	}
}

func (g *gaState) evaluateAll() {
	for i := range g.pop {
		g.evaluate(&g.pop[i])
	}
	sort.SliceStable(g.pop, func(i, j int) bool { return g.pop[i].fitness > g.pop[j].fitness })
}

// tournament picks a parent index.
func (g *gaState) tournament() int {
	best := g.rnd.Intn(len(g.pop))
	for i := 1; i < g.cfg.Tournament; i++ {
		c := g.rnd.Intn(len(g.pop))
		if g.pop[c].fitness > g.pop[best].fitness {
			best = c
		}
	}
	return best
}

// orderCrossover is OX1: a slice of parent A is kept in place; the
// remaining positions take B's cells in B's relative order.
func (g *gaState) orderCrossover(a, b []netlist.CellID) []netlist.CellID {
	n := len(a)
	lo := g.rnd.Intn(n)
	hi := lo + 1 + g.rnd.Intn(n-lo)
	child := make([]netlist.CellID, n)
	inSlice := make(map[netlist.CellID]bool, hi-lo)
	for i := lo; i < hi; i++ {
		child[i] = a[i]
		inSlice[a[i]] = true
	}
	pos := 0
	for _, id := range b {
		if inSlice[id] {
			continue
		}
		for pos >= lo && pos < hi {
			pos++
		}
		if pos >= n {
			break
		}
		child[pos] = id
		pos++
	}
	return child
}

func (g *gaState) mutate(perm []netlist.CellID) {
	for i := 0; i < g.cfg.MutSwaps; i++ {
		a, b := g.rnd.Intn(len(perm)), g.rnd.Intn(len(perm))
		perm[a], perm[b] = perm[b], perm[a]
	}
}

// step runs one generation.
func (g *gaState) step() {
	next := make([]genome, 0, g.cfg.Pop)
	// Elitism: population is kept sorted by fitness.
	for i := 0; i < g.cfg.Elite && i < len(g.pop); i++ {
		next = append(next, g.pop[i])
	}
	for len(next) < g.cfg.Pop {
		pa := g.pop[g.tournament()].perm
		var child []netlist.CellID
		if g.rnd.Float64() < g.cfg.CxProb {
			pb := g.pop[g.tournament()].perm
			child = g.orderCrossover(pa, pb)
		} else {
			child = append([]netlist.CellID(nil), pa...)
		}
		g.mutate(child)
		next = append(next, genome{perm: child, fitness: -1})
	}
	g.pop = next
	g.evaluateAll()
}

// RunGA executes the serial genetic algorithm.
func RunGA(prob *core.Problem, cfg GAConfig) (*Result, error) {
	return RunGAContext(context.Background(), prob, cfg, nil)
}

// RunGAContext is RunGA with cooperative cancellation and progress
// reporting. The context is checked between generations; a cancelled run
// returns the best-so-far result. progress, when non-nil, is invoked after
// every generation with the generation count and the best μ.
func RunGAContext(ctx context.Context, prob *core.Problem, cfg GAConfig, progress core.Progress) (*Result, error) {
	if err := requireWirePower(prob); err != nil {
		return nil, err
	}
	cfg.defaults()
	if cfg.Generations <= 0 {
		return nil, fmt.Errorf("metaheur: GA needs a positive generation budget")
	}
	start := time.Now()
	g := newGA(prob, cfg, 0x6a)
	gens := 0
	for gen := 0; gen < cfg.Generations && ctx.Err() == nil; gen++ {
		g.step()
		gens++
		if progress != nil {
			progress(core.IterStats{Iter: gens, Mu: g.bestMu, Costs: g.bestCosts})
		}
	}
	return &Result{
		BestMu:    g.bestMu,
		BestCosts: g.bestCosts,
		Best:      g.best,
		Moves:     gens,
		Runtime:   time.Since(start),
	}, nil
}

// ParallelGAConfig configures the island-model GA.
type ParallelGAConfig struct {
	GA GAConfig
	// Procs islands, ring topology.
	Procs int
	// MigrateEvery generations between migrations (0: 10).
	MigrateEvery int
	// Migrants per migration (0: 2).
	Migrants       int
	Net            *mpi.NetModel
	MeasureCompute *bool
}

const tagGAMigrate = 50

// RunParallelGA runs the distributed island-model GA of the authors'
// companion paper [8]: every rank evolves its own population; every
// MigrateEvery generations the top Migrants individuals are sent to the
// next rank in a ring and merged into its population, replacing its worst.
func RunParallelGA(prob *core.Problem, cfg ParallelGAConfig) (*parallel.Result, error) {
	if err := requireWirePower(prob); err != nil {
		return nil, err
	}
	if cfg.Procs < 2 {
		return nil, fmt.Errorf("metaheur: island GA needs >= 2 ranks")
	}
	c := cfg.GA
	c.defaults()
	if c.Generations <= 0 {
		return nil, fmt.Errorf("metaheur: GA needs a positive generation budget")
	}
	migrateEvery := cfg.MigrateEvery
	if migrateEvery <= 0 {
		migrateEvery = 10
	}
	migrants := cfg.Migrants
	if migrants <= 0 {
		migrants = 2
	}
	if migrants > c.Pop/2 {
		migrants = c.Pop / 2
	}

	type island struct {
		mu   float64
		best *layout.Placement
	}
	results := make([]island, cfg.Procs)

	o := parallel.Options{Procs: cfg.Procs, Net: cfg.Net, MeasureCompute: cfg.MeasureCompute}
	out, err := parallel.RunSim(prob, o, func(comm parallel.Comm, prob *core.Problem, _ parallel.Options) (*parallel.Result, error) {
		g := newGA(prob, c, uint64(0x15a0+comm.Rank()))
		next := (comm.Rank() + 1) % comm.Size()
		prev := (comm.Rank() - 1 + comm.Size()) % comm.Size()
		for gen := 1; gen <= c.Generations; gen++ {
			g.step()
			if gen%migrateEvery == 0 {
				// Ring migration: send top individuals, merge incoming.
				comm.Send(next, tagGAMigrate, encodeMigrants(g.pop[:migrants]))
				data, _ := comm.Recv(prev, tagGAMigrate)
				incoming, err := decodeMigrants(prob, data)
				if err != nil {
					return nil, err
				}
				// Replace the tail (worst) with the immigrants.
				for i, ind := range incoming {
					g.pop[len(g.pop)-1-i] = ind
				}
				g.evaluateAll()
			}
		}
		results[comm.Rank()] = island{mu: g.bestMu, best: g.best}
		// Rank 0 carries the run's result; the islands' bests are merged
		// once every rank has finished.
		return &parallel.Result{Iters: c.Generations}, nil
	})
	if err != nil {
		return nil, err
	}

	for _, isl := range results {
		if isl.best != nil && isl.mu > out.BestMu {
			out.BestMu = isl.mu
			out.Best = isl.best
		}
	}
	if out.Best != nil {
		eng := prob.EngineFrom(out.Best.Clone(), nil)
		eng.EvaluateCosts()
		out.BestCosts = eng.Costs()
	}
	return out, nil
}

func encodeMigrants(inds []genome) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(inds)))
	for _, ind := range inds {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ind.perm)))
		for _, id := range ind.perm {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
	}
	return buf
}

func decodeMigrants(prob *core.Problem, data []byte) ([]genome, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("metaheur: truncated migrant payload")
	}
	n := int(binary.LittleEndian.Uint32(data))
	off := 4
	out := make([]genome, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("metaheur: truncated migrant %d", i)
		}
		k := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if k != prob.Ckt.NumMovable() || off+4*k > len(data) {
			return nil, fmt.Errorf("metaheur: migrant %d has bad genome length %d", i, k)
		}
		perm := make([]netlist.CellID, k)
		for j := range perm {
			perm[j] = netlist.CellID(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
		out = append(out, genome{perm: perm, fitness: -1})
	}
	return out, nil
}
