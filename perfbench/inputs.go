package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sizes fixes every input dimension of the workloads. fullSizes is what
// the benchmark measures; the package test runs tinySizes.
type sizes struct {
	WebScale   int // web-Google clone scale (log2 vertices) for solve-ic and serve-warm
	RMATScale  int // R-MAT scale for serve-tier
	RMATFactor float64

	SolveSeeds int // distinct RNG seeds the solve-ic client draws from
	SetupReps  int // setups per untraced run; setup_s is their median
	Tenants    int // serve-tier RNG seeds

	DeltaAdds int // edges each replayed delta adds
	DeltaRems int // and removes

	ReplayQueries int // queries replayed per layer in the traced run
	ReplayReps    int // repetitions of each persistence/ingest replay
	ReplayDeltas  int // deltas replayed through graph and imm repair
}

var fullSizes = sizes{
	WebScale: 12, RMATScale: 16, RMATFactor: 8,
	SolveSeeds: 3, SetupReps: 3, Tenants: 6,
	DeltaAdds: 8, DeltaRems: 8,
	ReplayQueries: 6, ReplayReps: 5, ReplayDeltas: 2,
}

var tinySizes = sizes{
	WebScale: 8, RMATScale: 10, RMATFactor: 8,
	SolveSeeds: 2, SetupReps: 2, Tenants: 4,
	DeltaAdds: 4, DeltaRems: 4,
	ReplayQueries: 3, ReplayReps: 2, ReplayDeltas: 1,
}

// shape is the per-query part of a seed-set request.
type shape struct {
	K   int
	Eps float64
}

// op is one query of a workload's seeded sequence.
type op struct {
	shape
	Seed uint64
}

// newRand returns the workload's deterministic stream for one purpose;
// distinct purposes draw from distinct streams of the same seed, so
// adding a draw to one input never shifts another.
func newRand(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^purpose))
}

// Stream purposes.
const (
	streamRNGSeeds = iota + 1
	streamOps
	streamReplayDeltas
)

// webGraph generates the web-Google clone at the given scale under the
// paper's uniform [0,1) IC weights.
func webGraph(scale int, seed uint64) (*graph.Graph, error) {
	p, err := gen.ProfileByName("web-Google")
	if err != nil {
		return nil, err
	}
	p.Scale = scale
	return p.Generate(graph.IC, seed)
}

// rmatGraph generates the R-MAT graph of serve-tier under
// weighted cascade (p = 1/indeg): the regime in which RRR sets stay local
// and a small delta dirties few of them.
func rmatGraph(sz sizes, seed uint64) (*graph.Graph, error) {
	g, err := gen.RMAT(gen.DefaultRMAT(sz.RMATScale, sz.RMATFactor), graph.IC, seed)
	if err != nil {
		return nil, err
	}
	graph.AssignWC(g)
	return g, nil
}

func edgeListText(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, fmt.Errorf("write edge list: %w", err)
	}
	return buf.Bytes(), nil
}

// rngSeeds draws n distinct nonzero RNG seeds for queries or solves.
func rngSeeds(seed uint64, n int) []uint64 {
	r := newRand(seed, streamRNGSeeds)
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := r.Uint64N(1<<31) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// opSequence is a workload's query sequence of n operations: blocks that
// each hold every (shape, tenant) pair once, in a seeded order. Balanced
// blocks keep the mix of cheap and costly queries the same in every run,
// so a run's latency quantiles do not move with the luck of the draw.
func opSequence(seed uint64, n int, shapes []shape, tenants []uint64) []op {
	r := newRand(seed, streamOps)
	block := crossOps(shapes, tenants)
	out := make([]op, 0, n+len(block))
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// crossOps lists every shape for every tenant, tenant by tenant, shapes
// in the order given: the order setup warms pools in.
func crossOps(shapes []shape, tenants []uint64) []op {
	var out []op
	for _, t := range tenants {
		for _, s := range shapes {
			out = append(out, op{shape: s, Seed: t})
		}
	}
	return out
}

// crossShapes returns every (k, ε) pair, largest sampling demand first.
func crossShapes(ks []int, epss []float64) []shape {
	var out []shape
	for i := len(ks) - 1; i >= 0; i-- {
		for _, e := range epss {
			out = append(out, shape{K: ks[i], Eps: e})
		}
	}
	return out
}

// deltaLog derives n successive edge deltas, each valid on the graph the
// previous ones produce. Removals are existing edges and additions absent
// non-loop pairs, so every delta applies cleanly in strict mode.
func deltaLog(g *graph.Graph, n, adds, rems int, seed, purpose uint64) ([]graph.Delta, error) {
	r := newRand(seed, purpose)
	ds := make([]graph.Delta, 0, n)
	for j := 0; j < n; j++ {
		d := randomDelta(g, r, adds, rems)
		ng, _, err := graph.ApplyDelta(g, d, graph.DeltaOptions{Strict: true})
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", j, err)
		}
		ds, g = append(ds, d), ng
	}
	return ds, nil
}

func randomDelta(g *graph.Graph, r *rand.Rand, adds, rems int) graph.Delta {
	d := graph.Delta{Seed: r.Uint64()}
	used := make(map[graph.Edge]bool, adds+rems)
	for len(d.Remove) < rems {
		u := r.Int32N(g.N)
		nb := g.OutNeighbors(u)
		if len(nb) == 0 {
			continue
		}
		e := graph.Edge{Src: u, Dst: nb[r.IntN(len(nb))]}
		if !used[e] {
			used[e] = true
			d.Remove = append(d.Remove, e)
		}
	}
	for len(d.Add) < adds {
		e := graph.Edge{Src: r.Int32N(g.N), Dst: r.Int32N(g.N)}
		if e.Src != e.Dst && !used[e] && !g.HasEdge(e.Src, e.Dst) {
			used[e] = true
			d.Add = append(d.Add, e)
		}
	}
	return d
}
