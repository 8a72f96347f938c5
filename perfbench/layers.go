package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/rrr"
	"repro/internal/serve"
)

// ---------------------------------------------------------------------
// The engine wrapper: spans around Engine.Generate and SelectSeeds.
// ---------------------------------------------------------------------

// engineBuild accumulates what one engine instance did across the
// RunEngine calls made on it.
type engineBuild struct {
	GenerateS   float64
	Sets        int64
	Allocs      uint64
	PoolBytes   int64
	SetStats    rrr.Stats
	SelectS     []float64 // per RunEngine call
	SelectCalls []float64 // per RunEngine call
}

// engineRecorder runs the IMM driver over wrapped engines and keeps one
// engineBuild per engine instance.
type engineRecorder struct {
	builds []engineBuild
	last   imm.Engine
}

// tracedEngine times every call the driver makes into the engine.
type tracedEngine struct {
	imm.Engine
	tr          *tracer
	parent, req int64
	b           *engineBuild
	selS        float64
	selCalls    int
}

// physicalSets counts sets an engine holds: a warm engine's logical
// view can be shorter than its pool.
func physicalSets(e imm.Engine) int64 {
	if w, ok := e.(interface{ PhysicalSets() int64 }); ok {
		return w.PhysicalSets()
	}
	return e.SetCount()
}

func (e *tracedEngine) Generate(target int64) {
	before, a0 := physicalSets(e.Engine), allocObjects()
	sp := e.tr.start("imm.Generate", e.parent, e.req)
	e.Engine.Generate(target)
	d := sp.end()
	e.b.Allocs += allocObjects() - a0
	e.b.GenerateS += seconds(d)
	e.b.Sets += physicalSets(e.Engine) - before
}

func (e *tracedEngine) SelectSeeds(k int) ([]int32, float64) {
	sp := e.tr.start("imm.SelectSeeds", e.parent, e.req)
	seeds, cov := e.Engine.SelectSeeds(k)
	e.selS += seconds(sp.end())
	e.selCalls++
	return seeds, cov
}

// run executes imm.RunEngine over a traced wrapper of eng. Calls on the
// engine passed last time add to the same engineBuild.
func (r *engineRecorder) run(tr *tracer, req int64, g *graph.Graph, opt imm.Options, eng imm.Engine) (*imm.Result, error) {
	if eng != r.last || len(r.builds) == 0 {
		r.builds = append(r.builds, engineBuild{})
		r.last = eng
	}
	b := &r.builds[len(r.builds)-1]
	root := tr.start("imm.RunEngine", 0, req)
	te := &tracedEngine{Engine: eng, tr: tr, parent: root.id, req: req, b: b}
	res, err := imm.RunEngine(g, opt, te)
	root.end()
	if err != nil {
		return nil, err
	}
	if len(b.SelectS) == 0 { // the build's first, largest-θ run
		b.SetStats = res.SetStats
	}
	b.PoolBytes = max(b.PoolBytes, res.Pool.TotalBytes())
	b.SelectS = append(b.SelectS, te.selS)
	b.SelectCalls = append(b.SelectCalls, float64(te.selCalls))
	return res, nil
}

// ---------------------------------------------------------------------
// The layer replay of a traced run.
// ---------------------------------------------------------------------

// replayInput is what a workload hands the layer replay: its graph and
// the inputs it sent, which the replay feeds through the public
// functions of the layers the workload reached only through serve.
type replayInput struct {
	c    config
	tr   *tracer
	g    *graph.Graph
	text []byte      // g's edge-list text; nil derives it
	base imm.Options // engine options; K, Epsilon and Seed are set per call
	// warm is the pool warm order of the workload's setup; replay the
	// query shapes replayed on the warm pool of RNG seed tenant.
	warm, replay []shape
	tenant       uint64
	// builds are engine builds the workload already traced (solve-ic);
	// nil makes the replay trace the pool warm-up instead.
	builds []engineBuild
	// nprocSolveS is the workload's median solve time at Workers=nproc,
	// or 0 to measure one.
	nprocSolveS float64
	// serveLayer holds serve.* metrics the workload's own traffic
	// measured, which replace the replay server's; nil keeps those.
	serveLayer map[string]float64
}

func (in replayInput) opt(s shape) imm.Options {
	o := in.base
	o.K, o.Epsilon, o.Seed = s.K, s.Eps, in.tenant
	return o
}

// replayLayers replays the workload's inputs through each layer's public
// functions and returns the per-layer metrics; go.*, host.* and
// trace.overhead_frac are left to the caller.
func replayLayers(in replayInput, o *outcome) (map[string]float64, error) {
	c, tr, g := in.c, in.tr, in.g
	nproc := runtime.NumCPU()
	L := map[string]float64{}
	dir := filepath.Join(c.Dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// ingest: edge-list parse and snapshot read.
	text := in.text
	if text == nil {
		var err error
		if text, err = edgeListText(g); err != nil {
			return nil, err
		}
	}
	var parse, snap []float64
	snapPath := filepath.Join(dir, "replay"+ingest.SnapshotExt)
	if err := ingest.WriteSnapshotFile(snapPath, g, c.Seed); err != nil {
		return nil, err
	}
	for i := 0; i < c.Sizes.ReplayReps; i++ {
		sp := tr.start("ingest.Bytes", 0, 0)
		if _, _, err := ingest.Bytes(text, ingest.Options{Workers: nproc, Model: g.Model(), Seed: c.Seed}); err != nil {
			return nil, fmt.Errorf("replay ingest: %w", err)
		}
		parse = append(parse, seconds(sp.end()))
		sp = tr.start("ingest.ReadSnapshotFile", 0, 0)
		if _, _, err := ingest.ReadSnapshotFile(snapPath); err != nil {
			return nil, fmt.Errorf("replay snapshot read: %w", err)
		}
		snap = append(snap, seconds(sp.end()))
	}
	L["ingest.parse_s"] = median(parse)
	L["ingest.parse_mb_per_s"] = ratio(float64(len(text))/1e6, median(parse))
	L["ingest.snapshot_read_s"] = median(snap)

	// imm: warm the tenant's pool through the traced engine wrapper.
	eng, err := imm.NewWarmEngine(g, in.opt(in.warm[0]))
	if err != nil {
		return nil, err
	}
	rec := &engineRecorder{}
	for i, s := range in.warm {
		if _, err := rec.run(tr, int64(-1-i), g, in.opt(s), eng); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	builds := in.builds
	if builds == nil {
		builds = rec.builds
	}
	var genS, sets, allocs, poolMB, selS, selCalls, meanSize, bitmapFrac []float64
	for _, b := range builds {
		genS = append(genS, b.GenerateS)
		sets = append(sets, float64(b.Sets))
		allocs = append(allocs, ratio(float64(b.Allocs), float64(b.Sets)))
		poolMB = append(poolMB, float64(b.PoolBytes)/(1<<20))
		selS = append(selS, b.SelectS...)
		selCalls = append(selCalls, b.SelectCalls...)
		meanSize = append(meanSize, ratio(float64(b.SetStats.TotalSize), float64(b.SetStats.Count)))
		bitmapFrac = append(bitmapFrac, ratio(float64(b.SetStats.Bitmaps), float64(b.SetStats.Count)))
	}
	L["imm.generate_s"] = median(genS)
	L["imm.sets_per_solve"] = median(sets)
	L["imm.generate_ns_per_set"] = ratio(median(genS)*1e9, median(sets))
	L["imm.generate_allocs_per_set"] = median(allocs)
	L["imm.pool_mb"] = median(poolMB)
	L["imm.select_s"] = median(selS)
	L["imm.select_calls"] = median(selCalls)
	L["rrr.mean_set_size"] = median(meanSize)
	L["rrr.bitmap_frac"] = median(bitmapFrac)
	tr.mu.Lock()
	sum := summarize(tr.spans)["imm.RunEngine"]
	tr.mu.Unlock()
	L["imm.run_self_s"] = ratio(sum.SelfS, float64(sum.Count))

	// imm + serve: each replayed query shape is answered by the warm
	// engine directly, by a replay server's Server.Query and through its
	// handler, ReplayReps times. Server.Query's self time is its duration
	// minus the mean of the two engine answers around it, so host drift
	// during the three calls cancels to first order; the handler's self
	// time is its round trip minus the service time (WallMS) the server
	// reports for the same request. Every call starts from a collected
	// heap, so none is billed for the previous one's garbage, and follows
	// a call on the other pool (the engine's or the server's), so none
	// finds its pool warmer in cache.
	srv := serve.NewServer(serve.Options{Workers: in.base.Workers, MaxTheta: in.base.MaxTheta})
	defer shutdown(srv)
	if _, err := srv.AddGraph("replay", g, c.Seed); err != nil {
		return nil, err
	}
	for _, s := range in.warm {
		if _, err := srv.Query(serve.QueryRequest{Graph: "replay", K: s.K, Epsilon: s.Eps, Seed: in.tenant}); err != nil {
			return nil, fmt.Errorf("replay server warm-up: %w", err)
		}
	}
	h := srv.Handler()
	st0, serveAllocs := srv.Stats(), uint64(0)
	var answer, answerAllocs, handlerSelf, querySelf []float64
	for i, s := range in.replay {
		req := serve.QueryRequest{Graph: "replay", K: s.K, Epsilon: s.Eps, Seed: in.tenant}
		timed := func(name string, f func() error) (float64, uint64, error) {
			runtime.GC()
			a0 := allocObjects()
			sp := tr.start(name, 0, int64(i+1))
			err := f()
			return seconds(sp.end()), allocObjects() - a0, err
		}
		answerOnce := func() (float64, error) {
			d, n, err := timed("imm.AnswerBatch", func() error {
				_, err := eng.AnswerBatch(in.opt(s), []imm.BatchQuery{{K: s.K, Epsilon: s.Eps}})
				return err
			})
			answer, answerAllocs = append(answer, d), append(answerAllocs, float64(n))
			return d, err
		}
		for r := 0; r < c.Sizes.ReplayReps; r++ {
			a1, err := answerOnce()
			if err != nil {
				return nil, fmt.Errorf("replay answer: %w", err)
			}
			q, n, err := timed("serve.Query", func() error {
				_, err := srv.Query(req)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("replay query: %w", err)
			}
			serveAllocs += n
			a2, err := answerOnce()
			if err != nil {
				return nil, fmt.Errorf("replay answer: %w", err)
			}
			querySelf = append(querySelf, q-(a1+a2)/2)
			var res serve.QueryResult
			rt, n, err := timed("serve.Handler", func() error {
				return postJSON(h, "/v1/query", req, &res)
			})
			if err != nil {
				return nil, fmt.Errorf("replay query: %w", err)
			}
			serveAllocs += n
			handlerSelf = append(handlerSelf, rt-res.WallMS/1e3)
		}
	}
	L["imm.answer_s_p50"] = median(answer)
	L["imm.answer_allocs"] = median(answerAllocs)
	L["serve.handler_self_s_p50"] = median(handlerSelf)
	L["serve.query_self_s_p50"] = median(querySelf)
	serveLayer := in.serveLayer
	if serveLayer == nil {
		serveLayer = serveMetrics(st0, srv.Stats(), serveAllocs, 2*c.Sizes.ReplayReps*len(in.replay))
	}
	for k, v := range serveLayer {
		L[k] = v
	}

	// imm + ingest: freeze, .impool write, map + validate, thaw.
	var freeze, write, mapS, thaw []float64
	for i := 0; i < c.Sizes.ReplayReps; i++ {
		sp := tr.start("imm.Freeze", 0, 0)
		st, err := eng.Freeze(0)
		if err != nil {
			return nil, fmt.Errorf("replay freeze: %w", err)
		}
		freeze = append(freeze, seconds(sp.end()))
		path := filepath.Join(dir, fmt.Sprintf("replay-%d%s", i, ingest.PoolSnapshotExt))
		sp = tr.start("ingest.WritePoolSnapshotFile", 0, 0)
		if err := ingest.WritePoolSnapshotFile(path, st); err != nil {
			return nil, fmt.Errorf("replay pool write: %w", err)
		}
		write = append(write, seconds(sp.end()))
		sp = tr.start("ingest.MapPoolSnapshotFile", 0, 0)
		mst, _, err := ingest.MapPoolSnapshotFile(path)
		if err == nil {
			err = ingest.ValidatePoolGraph(mst, g, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("replay pool map: %w", err)
		}
		mapS = append(mapS, seconds(sp.end()))
		sp = tr.start("imm.ThawWarmEngine", 0, 0)
		if _, err := imm.ThawWarmEngine(g, in.opt(in.warm[0]), mst); err != nil {
			return nil, fmt.Errorf("replay thaw: %w", err)
		}
		thaw = append(thaw, seconds(sp.end()))
	}
	L["imm.freeze_s_p50"] = median(freeze)
	L["ingest.pool_write_s_p50"] = median(write)
	L["ingest.pool_map_s_p50"] = median(mapS)
	L["imm.thaw_s_p50"] = median(thaw)

	// sched: one solve on one worker against the nproc solve time.
	one := in.opt(solveShape)
	one.Workers = 1
	sp := tr.start("imm.Run.workers1", 0, 0)
	if _, err := imm.Run(g, one); err != nil {
		return nil, err
	}
	t1 := seconds(sp.end())
	tn := in.nprocSolveS
	if tn == 0 {
		sp = tr.start("imm.Run.workersN", 0, 0)
		if _, err := imm.Run(g, in.opt(solveShape)); err != nil {
			return nil, err
		}
		tn = seconds(sp.end())
	}
	L["sched.speedup"] = ratio(t1, tn)

	// graph + imm repair, then the same deltas through the replay server.
	ds, err := deltaLog(g, c.Sizes.ReplayDeltas, c.Sizes.DeltaAdds, c.Sizes.DeltaRems, c.Seed, streamReplayDeltas)
	if err != nil {
		return nil, err
	}
	var apply, dirty, repair, resampled, deltaRTT, repairedSets []float64
	cur := g
	for i, d := range ds {
		sp := tr.start("graph.ApplyDelta", 0, int64(i+1))
		ng, rep, err := graph.ApplyDelta(cur, d, graph.DeltaOptions{Strict: true})
		if err != nil {
			return nil, fmt.Errorf("replay delta: %w", err)
		}
		apply = append(apply, seconds(sp.end()))
		dirty = append(dirty, float64(len(rep.Dirty)))
		sp = tr.start("imm.WarmEngine.ApplyDelta", 0, int64(i+1))
		rr, err := eng.ApplyDelta(ng, rep)
		if err != nil {
			return nil, fmt.Errorf("replay repair: %w", err)
		}
		repair = append(repair, seconds(sp.end()))
		resampled = append(resampled, ratio(float64(rr.Resampled), float64(rr.Slots)))
		cur = ng

		var dr serve.DeltaResult
		sp = tr.start("serve.Handler.edges", 0, int64(i+1))
		if err := postJSON(h, "/v1/graphs/replay/edges", deltaRequest(d), &dr); err != nil {
			return nil, fmt.Errorf("replay server delta: %w", err)
		}
		deltaRTT = append(deltaRTT, seconds(sp.end()))
		repairedSets = append(repairedSets, float64(dr.SetsResampled))
		if dr.Edges != ng.M {
			o.fail("replay delta %d: server has %d edges, graph.ApplyDelta %d", i, dr.Edges, ng.M)
		}
	}
	L["graph.apply_delta_s_p50"] = median(apply)
	L["graph.dirty_per_delta"] = median(dirty)
	L["imm.repair_s_p50"] = median(repair)
	L["imm.repair_resampled_frac"] = median(resampled)
	L["serve.delta_s_p50"] = median(deltaRTT)
	L["serve.repaired_sets_per_delta"] = median(repairedSets)
	return L, nil
}

// serveMetrics derives the serve.* counter metrics from two Stats
// snapshots taken around a phase that sent queries requests.
func serveMetrics(a, b serve.Stats, allocs uint64, queries int) map[string]float64 {
	q := float64(b.Queries - a.Queries)
	executed := float64((b.WarmHits - a.WarmHits) + (b.ColdMisses - a.ColdMisses))
	return map[string]float64{
		"serve.allocs_per_query":         ratio(float64(allocs), float64(queries)),
		"serve.warm_hit_ratio":           ratio(float64(b.WarmHits-a.WarmHits), executed),
		"serve.batched_frac":             ratio(float64(b.BatchedQueries-a.BatchedQueries), q),
		"serve.generated_sets_per_query": ratio(float64(b.GeneratedSets-a.GeneratedSets), q),
		"serve.rejected":                 float64(b.Rejected - a.Rejected),
		"serve.demotions_per_query":      ratio(float64(b.Demotions-a.Demotions), q),
		"serve.promotions_per_query":     ratio(float64(b.Promotions-a.Promotions), q),
		"serve.promote_failures":         float64(b.PromoteFailures - a.PromoteFailures),
	}
}

func tracePath(c config) string {
	return filepath.Join(c.Dir, "traces", fmt.Sprintf("%s-seed%d.json", c.Workload, c.Seed))
}

// addRunMetrics adds the metrics a traced run takes around its own
// phases: the tracing overhead, the Go runtime's share and the host's.
func addRunMetrics(L map[string]float64, o *outcome, untracedLat, tracedLat []float64, g1, g2 goCounters) {
	L["trace.overhead_frac"] = ratio(median(tracedLat), median(untracedLat)) - 1
	L["go.gc_cpu_frac"] = ratio(g2.gcCPU-g1.gcCPU, g2.totalCPU-g1.totalCPU)
	L["go.alloc_mb_per_op"] = ratio(float64(g2.allocBytes-g1.allocBytes)/(1<<20), float64(len(tracedLat)))
	L["host.steal_frac"] = o.Steal
}
