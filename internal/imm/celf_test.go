package imm

import (
	"fmt"
	"testing"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/rrr"
)

// generatePool builds a pool of nsets through the Efficient engine's
// generation path under opt and returns the engine (its pool fully
// generated, selection untouched).
func generatePool(t *testing.T, g *graph.Graph, opt Options, nsets int64) *efficientEngine {
	t.Helper()
	if err := opt.normalize(g); err != nil {
		t.Fatal(err)
	}
	e := newEfficientEngine(g, opt)
	e.Generate(nsets)
	if e.SetCount() != nsets {
		t.Fatalf("generated %d sets, want %d", e.SetCount(), nsets)
	}
	return e
}

// TestCompressedPoolRoundTrip pins that the compressed pool holds
// exactly the same sets as the slice pool: every slot decodes to the
// identical member list, only the representation (and its byte cost)
// differs.
func TestCompressedPoolRoundTrip(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g := testGraph(t, 9, model)
		const nsets = 600
		optS := testOpts(Efficient, 3)
		optS.Pool = PoolSlices
		optC := optS
		optC.Pool = PoolCompressed
		slices := generatePool(t, g, optS, nsets).p.flatten()
		compressed := generatePool(t, g, optC, nsets).p.flatten()
		var sawCompressed bool
		for i := range slices {
			a := slices[i].Vertices(nil)
			b := compressed[i].Vertices(nil)
			if len(a) != len(b) {
				t.Fatalf("%v set %d: size %d vs %d", model, i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%v set %d member %d: %d vs %d", model, i, j, a[j], b[j])
				}
			}
			if compressed[i].Size() != len(a) {
				t.Fatalf("%v set %d: Size %d != %d", model, i, compressed[i].Size(), len(a))
			}
			if compressed[i].Kind() == "compressed" {
				sawCompressed = true
			}
		}
		if !sawCompressed {
			t.Fatalf("%v: compressed pool built no compressed sets", model)
		}
	}
}

// TestCELFMatchesScanAcrossWorkers is the selection-equivalence pin: the
// lazy-greedy kernel must return byte-identical seeds to the eager scan
// at every worker count, on both pool representations, with and without
// a fused base counter.
func TestCELFMatchesScanAcrossWorkers(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g := testGraph(t, 9, model)
		for _, pool := range []PoolKind{PoolSlices, PoolCompressed} {
			for _, fusion := range []bool{true, false} {
				opt := testOpts(Efficient, 2)
				opt.Pool = pool
				opt.Fusion = fusion
				opt.Selection = SelectScan
				ref, err := Run(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 4, 8} {
					o := opt
					o.Workers = w
					o.Selection = SelectCELF
					res, err := Run(g, o)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(res.Seeds) != fmt.Sprint(ref.Seeds) {
						t.Fatalf("%v pool=%v fusion=%v workers=%d: CELF %v != scan %v",
							model, pool, fusion, w, res.Seeds, ref.Seeds)
					}
					if res.Coverage != ref.Coverage {
						t.Fatalf("%v pool=%v workers=%d: coverage %v != %v", model, pool, w, res.Coverage, ref.Coverage)
					}
				}
			}
		}
	}
}

// TestSelectOnSetsIsCELF pins the exported kernel over an explicit flat
// slice — the distributed runtime's call shape — against the eager scan.
func TestSelectOnSetsIsCELF(t *testing.T) {
	g := testGraph(t, 9, graph.IC)
	opt := testOpts(Efficient, 2)
	e := generatePool(t, g, opt, 800)
	sets := e.p.flatten()
	refSeeds, refCov, _ := SelectOnSetsScan(g.N, sets, e.p.totalMembers, nil, 1, counter.AdaptiveUpdate, 12)
	for _, w := range []int{1, 3, 8} {
		seeds, cov, ops := SelectOnSets(g.N, sets, e.p.totalMembers, nil, w, counter.AdaptiveUpdate, 12)
		if fmt.Sprint(seeds) != fmt.Sprint(refSeeds) {
			t.Fatalf("workers=%d: %v != %v", w, seeds, refSeeds)
		}
		if cov != refCov {
			t.Fatalf("workers=%d: coverage %v != %v", w, cov, refCov)
		}
		if ops <= 0 {
			t.Fatalf("workers=%d: no modeled ops", w)
		}
	}
}

// TestCompressedPoolShrinksResidentBytes is the acceptance pin: against
// the []int32-slice pool the tentpole replaces (list representation for
// every set), the compressed pool's resident set bytes must shrink at
// least 2x on the default harness clone. CompressionRatio measures
// exactly that quotient.
func TestCompressedPoolShrinksResidentBytes(t *testing.T) {
	g := testGraph(t, 10, graph.IC)
	opt := testOpts(Efficient, 2)
	opt.Pool = PoolCompressed
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.SetBytes <= 0 || res.Pool.RawBytes <= 0 {
		t.Fatalf("footprint not reported: %+v", res.Pool)
	}
	if ratio := res.Pool.CompressionRatio(); ratio < 2 {
		t.Fatalf("compression ratio %.2f vs the slice pool, want >= 2", ratio)
	}
	// And it must not be worse than the adaptive slices pool either.
	optS := opt
	optS.Pool = PoolSlices
	resS, err := Run(g, optS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.SetBytes > resS.Pool.SetBytes {
		t.Fatalf("compressed set bytes %d above slices %d", res.Pool.SetBytes, resS.Pool.SetBytes)
	}
}

// TestScanModeSkipsIndex pins the memory trade-off: scan-mode selection
// never builds the inverted index, CELF does.
func TestScanModeSkipsIndex(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	scan := testOpts(Efficient, 2)
	scan.Selection = SelectScan
	res, err := Run(g, scan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.IndexBytes != 0 {
		t.Fatalf("scan mode built an index: %+v", res.Pool)
	}
	celf := testOpts(Efficient, 2)
	resC, err := Run(g, celf)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Pool.IndexBytes <= 0 {
		t.Fatalf("CELF mode reported no index: %+v", resC.Pool)
	}
	if want := hybridIndexBytes(generatePool(t, g, celf, resC.Theta).p.flatten(), g.N); resC.Pool.IndexBytes != want {
		t.Fatalf("index bytes %d != hybrid layout %d", resC.Pool.IndexBytes, want)
	}
	if resC.Pool.IndexBytes > resC.Pool.RawBytes {
		t.Fatalf("index bytes %d above 4 bytes/member %d", resC.Pool.IndexBytes, resC.Pool.RawBytes)
	}
}

// hybridIndexBytes is the index footprint of sets striped over the pool
// shards, computed from the sets alone. Per shard, the hybrid layout
// stores each vertex as a bit row over the shard's entries (8 bytes per
// 64 entries) when that is no larger than its postings (4 bytes each),
// else as the postings; a shard uses that layout only when it at most
// halves the shard's postings-only cost.
func hybridIndexBytes(sets []rrr.Set, n int32) int64 {
	var total int64
	for s := 0; s < poolShards; s++ {
		counts := make([]int64, n)
		var entries int64
		for i := s; i < len(sets); i += poolShards {
			sets[i].ForEach(func(v int32) { counts[v]++ })
			entries++
		}
		rowBytes := 8 * ((entries + 63) / 64)
		var hybrid, postings int64
		for _, c := range counts {
			hybrid += min(4*c, rowBytes)
			postings += 4 * c
		}
		if 2*hybrid <= postings {
			total += hybrid
		} else {
			total += postings
		}
	}
	return total
}

// TestParsePoolAndSelection covers the new option parsers.
func TestParsePoolAndSelection(t *testing.T) {
	if p, err := ParsePool("slices"); err != nil || p != PoolSlices {
		t.Fatal("ParsePool(slices)")
	}
	if p, err := ParsePool("compressed"); err != nil || p != PoolCompressed {
		t.Fatal("ParsePool(compressed)")
	}
	if _, err := ParsePool("x"); err == nil {
		t.Fatal("bad pool accepted")
	}
	if s, err := ParseSelection("celf"); err != nil || s != SelectCELF {
		t.Fatal("ParseSelection(celf)")
	}
	if s, err := ParseSelection("scan"); err != nil || s != SelectScan {
		t.Fatal("ParseSelection(scan)")
	}
	if _, err := ParseSelection("x"); err == nil {
		t.Fatal("bad selection accepted")
	}
	if PoolCompressed.String() != "compressed" || PoolSlices.String() != "slices" {
		t.Fatal("PoolKind.String")
	}
	if SelectCELF.String() != "celf" || SelectScan.String() != "scan" {
		t.Fatal("SelectionKind.String")
	}
}

// TestCELFSelectionScalesWithWorkers mirrors the Figure 6/7 claim for
// the lazy kernel: modeled selection cost must keep dropping with the
// worker count up to the shard grain.
func TestCELFSelectionScalesWithWorkers(t *testing.T) {
	g := testGraph(t, 10, graph.LT)
	sel := func(w int) float64 {
		opt := testOpts(Efficient, w)
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Breakdown.SelectionModeled
	}
	s1, s8 := sel(1), sel(8)
	if speedup := s1 / s8; speedup < 3 {
		t.Fatalf("CELF selection speedup at 8 workers = %.2f, want >= 3", speedup)
	}
}
