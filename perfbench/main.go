package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Dir holds the run's snapshot and pool files (removed at the end)
	// and its trace files (kept).
	Dir   string
	Sizes sizes
	// corruptRefs perturbs every reference answer before comparison; the
	// package test uses it to prove the check can fail.
	corruptRefs bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	Setup     []float64 // seconds per setup repetition
	Lat       []float64 // seconds per successful primary operation
	Elapsed   float64   // measured phase, seconds
	Attempted int
	Failed    int
	PeakRSS   int64
	Steal     float64
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64
	// Errors keeps the first few failure descriptions for stderr.
	Errors []string
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Errors) < 8 {
		o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
	}
}

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// op_s_p50 and ops_per_s measure the workload's primary operation: one
// solve on solve-ic, one query through the HTTP handler on serve-*.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload.
var perLayer = []metricDef{
	{"ingest.parse_s", "s"},
	{"ingest.parse_mb_per_s", "MB/s"},
	{"ingest.snapshot_read_s", "s"},
	{"ingest.pool_write_s_p50", "s"},
	{"ingest.pool_map_s_p50", "s"},
	{"imm.generate_s", "s"},
	{"imm.generate_ns_per_set", "ns"},
	{"imm.generate_allocs_per_set", "count"},
	{"imm.sets_per_solve", "count"},
	{"imm.pool_mb", "MB"},
	{"imm.select_s", "s"},
	{"imm.select_calls", "count"},
	{"imm.run_self_s", "s"},
	{"imm.answer_s_p50", "s"},
	{"imm.answer_allocs", "count"},
	{"imm.repair_s_p50", "s"},
	{"imm.repair_resampled_frac", "ratio"},
	{"imm.freeze_s_p50", "s"},
	{"imm.thaw_s_p50", "s"},
	{"graph.apply_delta_s_p50", "s"},
	{"graph.dirty_per_delta", "count"},
	{"rrr.mean_set_size", "count"},
	{"rrr.bitmap_frac", "ratio"},
	{"sched.speedup", "x"},
	{"serve.query_self_s_p50", "s"},
	{"serve.handler_self_s_p50", "s"},
	{"serve.delta_s_p50", "s"},
	{"serve.allocs_per_query", "count"},
	{"serve.warm_hit_ratio", "ratio"},
	{"serve.batched_frac", "ratio"},
	{"serve.generated_sets_per_query", "count"},
	{"serve.rejected", "count"},
	{"serve.repaired_sets_per_delta", "count"},
	{"serve.demotions_per_query", "count"},
	{"serve.promotions_per_query", "count"},
	{"serve.promote_failures", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_op", "MB"},
	{"host.steal_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

var workloads = map[string]func(config) (*outcome, error){
	"solve-ic":   runSolveIC,
	"serve-warm": runServeWarm,
	"serve-tier": runServeTier,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and assembles its result line.
func run(c config) (*result, envStamp, error) {
	env := envStamp{
		Workload: c.Workload, Seed: c.Seed, Trace: c.Trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	w, ok := workloads[c.Workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, env, fmt.Errorf("unknown workload %q (have %s)", c.Workload, strings.Join(names, ", "))
	}
	o, err := w(c)
	if err != nil {
		return nil, env, err
	}
	env.StealFrac = o.Steal
	res := &result{
		Correct:   o.Failed == 0 && o.Attempted > 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	vals := map[string]float64{
		"setup_s":     median(o.Setup),
		"op_s_p50":    median(o.Lat),
		"ops_per_s":   ratio(float64(len(o.Lat)), o.Elapsed),
		"peak_rss_mb": float64(o.PeakRSS) / (1 << 20),
	}
	if c.Trace {
		defs, vals = perLayer, o.Layers
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, env, fmt.Errorf("workload %s did not measure %s", c.Workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, e := range o.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	return res, env, nil
}

func main() {
	var c config
	flag.StringVar(&c.Workload, "workload", "", "workload name: solve-ic, serve-warm or serve-tier")
	flag.Uint64Var(&c.Seed, "seed", 1, "workload seed; every input is derived from it")
	flag.Float64Var(&c.Seconds, "seconds", 8, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	c.Trace = *trace != 0
	c.Dir = filepath.Join(".bench_build", "perfbench")
	c.Sizes = fullSizes
	if c.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}

	res, env, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stamp, _ := json.Marshal(map[string]envStamp{"env": env})
	fmt.Println(string(stamp))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
