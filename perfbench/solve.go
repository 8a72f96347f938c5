package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
)

// solveShape is the paper's Table III configuration.
var solveShape = shape{K: 50, Eps: 0.5}

// runSolveIC is the paper's workload: one closed-loop client repeating
// a one-shot IMM solve on the web-Google clone ingested from edge-list
// text, each solve under an RNG seed drawn from a small seeded set.
func runSolveIC(c config) (*outcome, error) {
	g0, err := webGraph(c.Sizes.WebScale, c.Seed)
	if err != nil {
		return nil, err
	}
	text, err := edgeListText(g0)
	if err != nil {
		return nil, err
	}
	seeds := rngSeeds(c.Seed, c.Sizes.SolveSeeds)
	seq := opSequence(c.Seed, 1<<14, []shape{solveShape}, seeds)

	o := &outcome{}
	var g *graph.Graph
	ingestOpt := ingest.Options{Workers: runtime.NumCPU(), Model: graph.IC, Seed: c.Seed}
	// Ingest takes milliseconds, so a host hiccup of that length moves
	// it: it is repeated more than a server setup, in batches between
	// the reference solves, each repetition from a collected heap as a
	// fresh process would start.
	setupBatch := func() error {
		for rep := 0; rep < 5*setupReps(c); rep++ {
			runtime.GC()
			start := time.Now()
			h, _, err := ingest.Bytes(text, ingestOpt)
			if err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
			o.Setup = append(o.Setup, seconds(time.Since(start)))
			if g == nil {
				g = h
			}
		}
		return nil
	}
	if err := setupBatch(); err != nil {
		return nil, err
	}

	base := imm.Defaults()
	base.K, base.Epsilon, base.Workers = solveShape.K, solveShape.Eps, runtime.NumCPU()
	refs := make(map[uint64]*imm.Result, len(seeds))
	for _, s := range seeds {
		opt := base
		opt.Seed = s
		if refs[s], err = imm.Run(g, opt); err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		if c.corruptRefs {
			corrupt(refs[s])
		}
		if err := setupBatch(); err != nil {
			return nil, err
		}
	}

	solve := func(tr *tracer, i int, rec *engineRecorder) (*imm.Result, error) {
		opt := base
		opt.Seed = seq[i%len(seq)].Seed
		if tr == nil {
			return imm.Run(g, opt)
		}
		eng, err := imm.NewEngine(g, opt)
		if err != nil {
			return nil, err
		}
		return rec.run(tr, int64(i+1), g, opt, eng)
	}
	phase := func(tr *tracer, rec *engineRecorder) (lat []float64, elapsed float64) {
		start := time.Now()
		deadline := start.Add(time.Duration(c.Seconds * float64(time.Second)))
		for i := 0; time.Now().Before(deadline); i++ {
			t := time.Now()
			res, err := solve(tr, i, rec)
			d := seconds(time.Since(t))
			o.Attempted++
			if err != nil {
				o.fail("solve %d: %v", i, err)
				continue
			}
			if err := sameAnswer(refs[seq[i%len(seq)].Seed], res.Seeds, res.Theta, res.Coverage); err != nil {
				o.fail("solve %d (seed %d): %v", i, seq[i%len(seq)].Seed, err)
				continue
			}
			lat = append(lat, d)
		}
		return lat, seconds(time.Since(start))
	}

	m := startMeasure()
	o.Lat, o.Elapsed = phase(nil, nil)
	m.finish(o)
	if !c.Trace {
		return o, nil
	}

	tr := newTracer()
	rec := &engineRecorder{}
	g1 := readGo()
	tracedLat, _ := phase(tr, rec)
	g2 := readGo()
	in := replayInput{
		c: c, tr: tr, g: g, text: text, base: base,
		warm: []shape{solveShape}, replay: []shape{solveShape}, tenant: seeds[0],
		builds: rec.builds, nprocSolveS: median(o.Lat),
	}
	layers, err := replayLayers(in, o)
	if err != nil {
		return nil, err
	}
	addRunMetrics(layers, o, o.Lat, tracedLat, g1, g2)
	o.Layers = layers
	return o, tr.write(tracePath(c))
}

// sameAnswer compares a served or solved answer with its cold reference.
func sameAnswer(ref *imm.Result, seeds []int32, theta int64, coverage float64) error {
	switch {
	case ref == nil:
		return fmt.Errorf("no reference")
	case !slices.Equal(ref.Seeds, seeds):
		return fmt.Errorf("seeds %v differ from reference %v", seeds, ref.Seeds)
	case ref.Theta != theta:
		return fmt.Errorf("theta %d differs from reference %d", theta, ref.Theta)
	case ref.Coverage != coverage:
		return fmt.Errorf("coverage %v differs from reference %v", coverage, ref.Coverage)
	}
	return nil
}

// corrupt perturbs a reference answer so that no correct answer matches.
func corrupt(r *imm.Result) {
	r.Seeds = append([]int32(nil), r.Seeds...)
	if len(r.Seeds) > 0 {
		r.Seeds[0] = -1
	}
	r.Theta++
}

func setupReps(c config) int {
	if c.Trace {
		return 1
	}
	return c.Sizes.SetupReps
}
