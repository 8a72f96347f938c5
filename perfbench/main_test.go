package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the test checks against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) == 0 || len(f.EndToEnd) == 0 || len(f.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", f)
	}
	return f
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{Workload: workload, Seed: 5, Seconds: 0.4, Trace: trace, Dir: t.TempDir(), Sizes: tinySizes}
}

// TestEveryMetricEmitted runs each workload of BENCHMARK.json at tiny
// size, untraced and traced, and checks that every metric the file
// names is printed with its unit and that every answer checks out.
func TestEveryMetricEmitted(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := run(tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptReferenceFails checks that the answer check can fail: with
// every reference perturbed, each workload must report failures.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range readBenchmarkFile(t).Workloads {
		c := tinyConfig(t, w.Name, false)
		c.corruptRefs = true
		res, _, err := run(c)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted references passed the check (failed=%d of %d)", w.Name, res.Failed, res.Attempted)
		}
	}
}
