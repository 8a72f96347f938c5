package imm

// Differential tests of the hybrid inverted index: a vertex is a bit row
// in a shard where its postings fill at least 1/32 of the entries, and a
// postings segment elsewhere. Whatever the mix, the CELF kernel over the
// index must select exactly what the eager scan selects over the same
// sets — on full and truncated views, built, extended or thawed — and a
// truncated view must report the footprint a cold pool of its size
// reports.

import (
	"reflect"
	"testing"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/rrr"
)

// hybridCase is one pool regime of the differential.
type hybridCase struct {
	name  string
	g     *graph.Graph
	nsets int64
	// rowShards bounds how many shards must hold rows: the regime's
	// point is rows everywhere, in some shards only, or nowhere.
	rowShardsMin, rowShardsMax int
}

func hybridCases(t *testing.T) []hybridCase {
	wc := func(scale int) *graph.Graph {
		g := testGraph(t, scale, graph.IC)
		graph.AssignWC(g)
		return g
	}
	return []hybridCase{
		{name: "IC dense", g: testGraph(t, 8, graph.IC), nsets: 2500, rowShardsMin: poolShards, rowShardsMax: poolShards},
		{name: "WC mixed", g: wc(6), nsets: 2500, rowShardsMin: 1, rowShardsMax: poolShards - 1},
		{name: "WC sparse", g: wc(9), nsets: 2500},
		{name: "LT", g: testGraph(t, 9, graph.LT), nsets: 2500},
	}
}

// hybridLimits returns view limits that fall on and off word boundaries
// of the per-shard rows (64 entries per shard word = 1024 global ids)
// and on and off shard boundaries (multiples of poolShards), including
// views that leave some shards empty.
func hybridLimits(nsets int64) []int64 {
	return []int64{1, 5, poolShards, 37, 1023, 1024, 1025, 2*1024 + 3*poolShards + 5, nsets - 1, nsets}
}

// rowCount is the number of (shard, vertex) rows in the pool's index.
func rowCount(p *shardedPool) int {
	rows := 0
	for s := range p.shards {
		rows += len(p.shards[s].rowVerts)
	}
	return rows
}

// checkViewsMatchScan runs CELF over every limit of p and compares seeds
// and coverage with the eager scan over the same prefix of sets, and the
// footprint with a cold pool of the limit's size.
func checkViewsMatchScan(t *testing.T, label string, c hybridCase, opt Options, p *shardedPool) {
	t.Helper()
	const k = 10
	sets := p.flatten()
	for _, limit := range hybridLimits(c.nsets) {
		wantSeeds, wantCov, _ := SelectOnSetsScan(c.g.N, sets[:limit], p.membersUpTo(limit), nil, 1, counter.AdaptiveUpdate, k)
		cold := generatePool(t, c.g, opt, limit)
		cold.p.selectCELF(nil, 1, k)
		wantPool := cold.p.footprint()
		for _, w := range []int{1, 3} {
			seeds, cov, _ := p.selectCELFLimited(nil, w, k, limit)
			if !reflect.DeepEqual(seeds, wantSeeds) || cov != wantCov {
				t.Fatalf("%s limit=%d w=%d: CELF %v/%v != scan %v/%v", label, limit, w, seeds, cov, wantSeeds, wantCov)
			}
		}
		if got := p.footprintUpTo(limit); got != wantPool {
			t.Fatalf("%s limit=%d: view footprint %+v != cold %+v", label, limit, got, wantPool)
		}
		if got, want := wantPool.IndexBytes, hybridIndexBytes(sets[:limit], c.g.N); got != want {
			t.Fatalf("%s limit=%d: cold index bytes %d != hybrid layout %d", label, limit, got, want)
		}
	}
}

// TestHybridIndexMatchesScan is the differential over the three pool
// regimes: built in one extension, built in several (the θ-round
// growth path, with rows reclassified as the shards grow), and thawed
// from a frozen state (aliased postings plus heap rows).
func TestHybridIndexMatchesScan(t *testing.T) {
	for _, c := range hybridCases(t) {
		opt := testOpts(Efficient, 2)
		opt.Kernel = KernelMaterialized // Generate leaves the index to selection
		e := generatePool(t, c.g, opt, c.nsets)
		e.p.selectCELF(nil, 1, 1)
		rowShards := 0
		for s := range e.p.shards {
			if len(e.p.shards[s].rowVerts) > 0 {
				rowShards++
			}
		}
		if rowShards < c.rowShardsMin || rowShards > c.rowShardsMax {
			t.Fatalf("%s: %d shards hold rows, want %d..%d", c.name, rowShards, c.rowShardsMin, c.rowShardsMax)
		}
		checkViewsMatchScan(t, c.name+"/one extension", c, opt, e.p)

		fused := opt
		fused.Kernel = KernelFused // Generate absorbs each extension into the index
		grown := generatePool(t, c.g, fused, 7)
		for _, size := range []int64{100, 1030, c.nsets} {
			grown.Generate(size)
			grown.p.selectCELF(nil, 2, 3)
		}
		for s := range grown.p.shards {
			a, b := &grown.p.shards[s], &e.p.shards[s]
			if !reflect.DeepEqual(a.postIdx, b.postIdx) || !reflect.DeepEqual(a.postData, b.postData) ||
				!reflect.DeepEqual(a.rowVerts, b.rowVerts) || !reflect.DeepEqual(a.rows, b.rows) {
				t.Fatalf("%s shard %d: index grown in steps differs from one extension", c.name, s)
			}
		}
		checkViewsMatchScan(t, c.name+"/grown", c, opt, grown.p)

		we := &WarmEngine{g: c.g, inner: e}
		st, err := we.Freeze(0)
		if err != nil {
			t.Fatal(err)
		}
		thawed, err := ThawWarmEngine(c.g, opt, st)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := thawed.PhysicalFootprint(), e.p.footprint(); got != want {
			t.Fatalf("%s: thawed footprint %+v != built %+v", c.name, got, want)
		}
		checkViewsMatchScan(t, c.name+"/thawed", c, opt, thawed.inner.p)
	}
}

// TestFreezeWritesPostingsOnlyIndex pins the snapshot side of the
// hybrid: Freeze writes every shard's index as the full postings CSR a
// postings-only build produces, rows expanded, so the .impool format
// does not see the in-memory layout.
func TestFreezeWritesPostingsOnlyIndex(t *testing.T) {
	c := hybridCases(t)[0]
	opt := testOpts(Efficient, 2)
	e := generatePool(t, c.g, opt, c.nsets)
	e.p.selectCELF(nil, 2, 5)
	if rowCount(e.p) == 0 {
		t.Fatal("dense IC pool built no rows")
	}
	st, err := (&WarmEngine{g: c.g, inner: e}).Freeze(0)
	if err != nil {
		t.Fatal(err)
	}
	sets := e.p.flatten()
	for s := range st.Shards {
		idx, data := postingsOnly(sets, s, c.g.N)
		if !reflect.DeepEqual(st.Shards[s].PostIdx, idx) || !reflect.DeepEqual(st.Shards[s].PostData, data) {
			t.Fatalf("shard %d: frozen postings differ from a postings-only build", s)
		}
	}
}

// postingsOnly builds shard s's full postings CSR straight from the
// striped sets: vertex v's ascending local entry ids.
func postingsOnly(sets []rrr.Set, s int, n int32) (idx, data []int32) {
	lists := make([][]int32, n)
	for i := s; i < len(sets); i += poolShards {
		j := int32(i / poolShards)
		sets[i].ForEach(func(v int32) { lists[v] = append(lists[v], j) })
	}
	idx = make([]int32, n+1)
	data = []int32{}
	for v, l := range lists {
		data = append(data, l...)
		idx[v+1] = int32(len(data))
	}
	return idx, data
}
