package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/serve"
)

const graphName = "g"

// servePlan is one serving workload: the graph it registers, how setup
// warms it, and the query sequence its closed-loop clients send.
type servePlan struct {
	c       config
	g       *graph.Graph // as generated; references are solved on it
	opt     serve.Options
	warm    []op // setup's warm-up queries, in order
	seq     []op // the measured query sequence
	clients int
	tenants []uint64
	// tierBudget > 0 makes every setup use a fresh PoolDir.
	tierBudget int64
}

// answer is one query the clients sent.
type answer struct {
	op
	res serve.QueryResult
	err error
	lat float64
}

func runServeWarm(c config) (*outcome, error) {
	g, err := webGraph(c.Sizes.WebScale, c.Seed)
	if err != nil {
		return nil, err
	}
	// Ingest from edge-list text like solve-ic, so both workloads serve
	// the same graph; registration then reads its .imsnap.
	text, err := edgeListText(g)
	if err != nil {
		return nil, err
	}
	if g, _, err = ingest.Bytes(text, ingest.Options{Workers: runtime.NumCPU(), Model: graph.IC, Seed: c.Seed}); err != nil {
		return nil, err
	}
	shapes := crossShapes([]int{10, 25, 50}, []float64{0.3, 0.5})
	tenants := []uint64{1, 2}
	p := &servePlan{
		c: c, g: g, clients: 2,
		opt:     serve.Options{Workers: runtime.NumCPU()},
		warm:    crossOps(shapes, tenants),
		seq:     opSequence(c.Seed, 1<<14, shapes, tenants),
		tenants: tenants,
	}
	return p.run(text)
}

func runServeTier(c config) (*outcome, error) {
	g, err := rmatGraph(c.Sizes, c.Seed)
	if err != nil {
		return nil, err
	}
	shapes := []shape{solveShape}
	tenants := rngSeeds(c.Seed, c.Sizes.Tenants)
	opt := serve.Options{Workers: runtime.NumCPU()}
	// Size the RAM budget to hold two pools: measure one pool the way
	// the server accounts it, on an engine outside setup.
	eo := opt.EngineOptions()
	eo.K, eo.Epsilon, eo.Seed = solveShape.K, solveShape.Eps, tenants[0]
	w, err := imm.NewWarmEngine(g, eo)
	if err != nil {
		return nil, err
	}
	if _, err := imm.RunEngine(g, eo, w); err != nil {
		return nil, err
	}
	poolBytes := w.PhysicalFootprint().TotalBytes() + w.OverheadBytes()
	p := &servePlan{
		c: c, g: g, clients: 2,
		opt:        opt,
		tierBudget: poolBytes*5/2 + 1,
		warm:       crossOps(shapes, tenants),
		seq:        opSequence(c.Seed, 1<<14, shapes, tenants),
		tenants:    tenants,
	}
	return p.run(nil)
}

// run performs setup, the measured phase(s), the answer checks and, when
// tracing, the layer replay. text is the graph's edge-list text if the
// workload already made it.
func (p *servePlan) run(text []byte) (*outcome, error) {
	c := p.c
	dir := filepath.Join(c.Dir, "run")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, graphName+ingest.SnapshotExt)
	if err := ingest.WriteSnapshotFile(snap, p.g, c.Seed); err != nil {
		return nil, err
	}

	o := &outcome{}
	var srv *serve.Server
	for rep := 0; rep < setupReps(c); rep++ {
		if srv != nil {
			shutdown(srv)
			srv = nil
			runtime.GC()
		}
		opt := p.opt
		if p.tierBudget > 0 {
			opt.PoolBudgetBytes = p.tierBudget
			opt.PoolDir = filepath.Join(dir, fmt.Sprintf("pools-%d", rep))
			if err := os.MkdirAll(opt.PoolDir, 0o755); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		s, err := p.setup(opt, snap)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		o.Setup = append(o.Setup, seconds(time.Since(start)))
		srv = s
	}
	defer shutdown(srv)

	var next atomic.Int64
	m := startMeasure()
	answers, elapsed := p.phase(srv, nil, &next)
	m.finish(o)
	o.Elapsed = elapsed

	var tr *tracer
	var traced []answer
	var serveLayer map[string]float64
	var g1, g2 goCounters
	if c.Trace {
		tr = newTracer()
		st0 := srv.Stats()
		g1 = readGo()
		traced, _ = p.phase(srv, tr, &next)
		g2 = readGo()
		serveLayer = serveMetrics(st0, srv.Stats(), g2.allocObjects-g1.allocObjects, len(traced))
	}

	if err := p.check(o, answers, traced); err != nil {
		return nil, err
	}
	if !c.Trace {
		return o, nil
	}

	// Replay tenant 0's pool.
	var replay, warm []shape
	for _, w := range p.warm {
		if w.Seed == p.tenants[0] {
			warm = append(warm, w.shape)
		}
	}
	for _, q := range p.seq {
		if len(replay) == c.Sizes.ReplayQueries {
			break
		}
		if q.Seed == p.tenants[0] {
			replay = append(replay, q.shape)
		}
	}
	in := replayInput{
		c: c, tr: tr, g: p.g, text: text, base: p.opt.EngineOptions(),
		warm: warm, replay: replay, tenant: p.tenants[0],
		serveLayer: serveLayer,
	}
	layers, err := replayLayers(in, o)
	if err != nil {
		return nil, err
	}
	var tracedLat []float64
	for _, a := range traced {
		tracedLat = append(tracedLat, a.lat)
	}
	addRunMetrics(layers, o, o.Lat, tracedLat, g1, g2)
	o.Layers = layers
	return o, tr.write(tracePath(c))
}

// setup registers the snapshot and sends the warm-up queries.
func (p *servePlan) setup(opt serve.Options, snap string) (*serve.Server, error) {
	srv := serve.NewServer(opt)
	if _, err := srv.AddSnapshot(graphName, snap); err != nil {
		return nil, err
	}
	for _, w := range p.warm {
		if _, err := srv.Query(p.request(w)); err != nil {
			shutdown(srv)
			return nil, err
		}
	}
	return srv, nil
}

func (p *servePlan) request(q op) serve.QueryRequest {
	return serve.QueryRequest{Graph: graphName, K: q.K, Epsilon: q.Eps, Seed: q.Seed}
}

// phase runs the closed-loop clients for the configured seconds, taking
// queries from the shared sequence position next.
func (p *servePlan) phase(srv *serve.Server, tr *tracer, next *atomic.Int64) ([]answer, float64) {
	h := srv.Handler()
	start := time.Now()
	deadline := start.Add(time.Duration(p.c.Seconds * float64(time.Second)))
	per := make([][]answer, p.clients)
	var wg sync.WaitGroup
	for cl := range per {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				q := p.seq[int(i)%len(p.seq)]
				var a answer
				a.op = q
				sp := tr.start("client.query", 0, i+1)
				a.err = postJSON(h, "/v1/query", p.request(q), &a.res)
				a.lat = seconds(sp.end())
				per[cl] = append(per[cl], a)
			}
		}(cl)
	}
	wg.Wait()
	elapsed := seconds(time.Since(start))
	var all []answer
	for _, a := range per {
		all = append(all, a...)
	}
	return all, elapsed
}

// check scores every answer against a cold imm.Run reference.
func (p *servePlan) check(o *outcome, answers, traced []answer) error {
	refs := map[op]*imm.Result{}
	score := func(as []answer, keep bool) error {
		for _, a := range as {
			o.Attempted++
			if a.err != nil {
				o.fail("query %+v: %v", a.op, a.err)
				continue
			}
			r, ok := refs[a.op]
			if !ok {
				opt := p.opt.EngineOptions()
				opt.K, opt.Epsilon, opt.Seed = a.K, a.Eps, a.Seed
				var err error
				if r, err = imm.Run(p.g, opt); err != nil {
					return fmt.Errorf("reference solve: %w", err)
				}
				if p.c.corruptRefs {
					corrupt(r)
				}
				refs[a.op] = r
			}
			if err := sameAnswer(r, a.res.Seeds, a.res.Theta, a.res.Coverage); err != nil {
				o.fail("query %+v: %v", a.op, err)
				continue
			}
			if keep {
				o.Lat = append(o.Lat, a.lat)
			}
		}
		return nil
	}
	if err := score(answers, true); err != nil {
		return err
	}
	return score(traced, false)
}

func deltaRequest(d graph.Delta) serve.DeltaRequest {
	r := serve.DeltaRequest{Seed: d.Seed, Strict: true}
	for _, e := range d.Add {
		r.Add = append(r.Add, [2]int32{e.Src, e.Dst})
	}
	for _, e := range d.Remove {
		r.Remove = append(r.Remove, [2]int32{e.Src, e.Dst})
	}
	return r
}

// postJSON sends body to the handler in process and decodes a 200 reply
// into out.
func postJSON(h http.Handler, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	return json.Unmarshal(w.Body.Bytes(), out)
}

// shutdown drains a server; every benchmark call has returned by then.
func shutdown(s *serve.Server) {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
}
