package imm_test

// The .impool round trip of a pool whose index holds bit rows: Freeze,
// write the snapshot, map it back and thaw. The thawed engine aliases
// the mapped postings and rebuilds rows on the heap; it must answer
// byte-identically to the frozen engine, and the file's postings must be
// the postings-only CSR of the pool's sets.

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/rrr"
)

func TestHybridIndexSnapshotRoundTrip(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6), graph.IC, 42) // uniform IC: dense rows
	if err != nil {
		t.Fatal(err)
	}
	opt := imm.Defaults()
	opt.Workers = 2
	opt.Seed = 7
	opt.MaxTheta = 8000
	batch := []imm.BatchQuery{{K: 10, Epsilon: 0.5}, {K: 4, Epsilon: 0.7}, {K: 20, Epsilon: 0.4}}

	we, err := imm.NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	before, err := we.AnswerBatch(opt, batch)
	if err != nil {
		t.Fatal(err)
	}
	st, err := we.Freeze(3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.impool")
	if err := ingest.WritePoolSnapshotFile(path, st); err != nil {
		t.Fatal(err)
	}
	mapped, _, err := ingest.MapPoolSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for s := range mapped.Shards {
		idx, data := postingsOf(t, mapped, s)
		if !reflect.DeepEqual(mapped.Shards[s].PostIdx, idx) || !reflect.DeepEqual(mapped.Shards[s].PostData, data) {
			t.Fatalf("shard %d: snapshot postings differ from a postings-only build", s)
		}
	}

	thawed, err := imm.ThawWarmEngine(g, opt, mapped)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := thawed.PhysicalFootprint(), we.PhysicalFootprint(); got != want {
		t.Fatalf("thawed footprint %+v != frozen %+v", got, want)
	}
	after, err := thawed.AnswerBatch(opt, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		a, b := after.Answers[i].Res, before.Answers[i].Res
		if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.Theta != b.Theta || a.Coverage != b.Coverage ||
			a.LB != b.LB || a.SetStats != b.SetStats || a.Pool != b.Pool {
			t.Fatalf("member %d: thawed answer %v/θ=%d/%v/%+v != frozen %v/θ=%d/%v/%+v",
				i, a.Seeds, a.Theta, a.Coverage, a.Pool, b.Seeds, b.Theta, b.Coverage, b.Pool)
		}
	}
}

// postingsOf decodes shard s's sets from the state's payload blobs and
// builds their postings-only CSR: vertex v's ascending local entry ids.
func postingsOf(t *testing.T, st *imm.PoolState, s int) (idx, data []int32) {
	t.Helper()
	sh := &st.Shards[s]
	lists := make([][]int32, st.N)
	words := (int(st.N) + 63) / 64
	var lc, cc, bc int
	for j, kind := range sh.Kinds {
		size := int(sh.Sizes[j])
		var set rrr.Set
		switch kind {
		case imm.PoolSetList:
			set = rrr.AdoptSortedList(sh.ListData[lc : lc+size])
			lc += size
		case imm.PoolSetCompressed:
			cl := int(sh.CompLens[j])
			set = rrr.AdoptCompressed(sh.CompData[cc:cc+cl], sh.Sizes[j])
			cc += cl
		case imm.PoolSetBitmap:
			set = rrr.AdoptBitmap(st.N, sh.BitmapData[bc:bc+words], size)
			bc += words
		default:
			t.Fatalf("shard %d entry %d: unknown kind %d", s, j, kind)
		}
		set.ForEach(func(v int32) { lists[v] = append(lists[v], int32(j)) })
	}
	idx = make([]int32, st.N+1)
	data = []int32{}
	for v, l := range lists {
		data = append(data, l...)
		idx[v+1] = int32(len(data))
	}
	return idx, data
}
