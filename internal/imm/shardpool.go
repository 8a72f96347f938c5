package imm

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// The sharded RRR pool behind the Efficient engine. Set ids are struck
// round-robin across a fixed number of shards (fixed so that nothing
// about the pool layout — and therefore nothing about selection —
// depends on the worker count). Each shard owns:
//
//   - the sets themselves, in whatever representation the policy chose
//     (plain lists, delta-encoded compressed lists, or bitset rows);
//   - an inverted index mapping vertex → ids of the shard's sets that
//     contain it, extended incrementally as the pool grows, so coverage
//     updates during selection walk compact postings instead of
//     re-scanning (and, for compressed sets, re-decoding) every set;
//   - a coverage scratch bitset reused across selection calls.
//
// Shards give the two expensive maintenance passes — index extension
// after generation and posting walks during selection — a natural
// parallel grain that is independent of the simulated worker count.

// poolShards is the fixed shard count. A power of two keeps the id
// mapping a mask/shift; 16 shards keep per-shard postings balanced (ids
// are striped) while giving up to 16 workers independent work.
const poolShards = 16

// PoolFootprint reports where an engine's RRR pool memory went.
// SetBytes is the resident representation (the paper's Table III
// quantity), IndexBytes the inverted-index postings that CELF selection
// walks, RawBytes the 4-bytes-per-member cost of holding the
// same pool as plain []int32 slices — the compression baseline.
type PoolFootprint struct {
	SetBytes   int64
	IndexBytes int64
	RawBytes   int64
}

// TotalBytes is the full resident footprint, sets plus index.
func (f PoolFootprint) TotalBytes() int64 { return f.SetBytes + f.IndexBytes }

// CompressionRatio is raw-slice bytes over resident set bytes (>1 means
// the representation beats plain slices).
func (f PoolFootprint) CompressionRatio() float64 {
	if f.SetBytes == 0 {
		return 1
	}
	return float64(f.RawBytes) / float64(f.SetBytes)
}

// poolShard is one stripe of the pool. Entry j holds global set id
// j*poolShards + (shard index).
type poolShard struct {
	sets []rrr.Set

	// Inverted index over sets[:indexed], adaptive per vertex like the
	// sets themselves (HBMax's dense-row layout). A vertex whose postings
	// fill at least 1/32 of the indexed entries (rowMin) keeps a bit row
	// over the entries instead — provided the shard's rows pay for
	// themselves (rowsPay) — and selection then retires and recounts 64
	// entries per AND-NOT and popcount. Every other vertex keeps a sparse
	// CSR segment: its local entry ids are postData[postIdx[v]:postIdx[v+1]],
	// ascending — the invariant the truncated-view binary search
	// (postPrefix) relies on. The layout is reclassified from the merged
	// counts on every extension, so it is a pure function of the indexed
	// sets, however the pool got them.
	//
	// A thawed shard aliases a snapshot's full postings (row vertices
	// included) and holds heap rows beside them; rows always take
	// precedence, so the extra postings are never read.
	postIdx  []int32 // len n+1 once built
	postData []int32
	rowVerts []int32  // ascending vertices that hold a bit row
	rowCnt   []int32  // set bits per row
	rows     []uint64 // len(rowVerts) rows of rowWords(indexed) words each
	// rowAt maps a pool-level row rank (shardedPool.rowRank) to an index
	// into rowVerts, or -1 when the vertex is sparse in this shard.
	rowAt   []int32
	covered *bitset.Bitset // selection scratch over entries, reset per call
	indexed int

	postCount  int64 // total postings (one per member), rows included
	indexBytes int64 // resident index payload: 4 B per posting, 8 B per row word
}

// rowWords is the length of a bit row over entries entries.
func rowWords(entries int) int { return (entries + 63) / 64 }

// rowMin is the fewest postings that make a vertex a bit row among
// entries indexed entries: 1/32 of the entries, rounded up to whole
// words, so a row (8 bytes per 64 entries) is never larger than the
// 4-byte postings it replaces. Nothing qualifies in an empty shard.
func rowMin(entries int) int32 {
	if entries == 0 {
		return math.MaxInt32
	}
	return int32(2 * rowWords(entries))
}

// rowSaving is the bytes a row saves over c >= rowMin(entries) postings.
func rowSaving(c int32, entries int) int64 {
	return 4*int64(c) - 8*int64(rowWords(entries))
}

// rowsPay reports whether a shard stores its dense vertices as rows at
// all, given the bytes the rows would save and the shard's posting
// count: only when they at least halve its 4 B/posting index. A shard
// below that keeps postings only. A few hub rows save little memory, yet a shard with rows has to
// be expanded back into postings for every snapshot Freeze writes —
// a transient copy of the shard's index — while a postings-only shard is
// written in place.
func rowsPay(saved, postings int64) bool { return saved >= 2*postings }

// postings returns the local entry ids of sets[:indexed] containing v,
// ascending — for a sparse vertex; a row vertex's postings are empty
// (or, on a thawed shard, present but shadowed by its row). Nil until
// the index is first built.
func (s *poolShard) postings(v int32) []int32 {
	if s.postIdx == nil {
		return nil
	}
	return s.postData[s.postIdx[v]:s.postIdx[v+1]]
}

// rowOf returns the bit row of the vertex with pool-level row rank d,
// or nil when that vertex is sparse in this shard (or d < 0).
func (s *poolShard) rowOf(d int32) []uint64 {
	if d < 0 {
		return nil
	}
	r := int(s.rowAt[d])
	if r < 0 {
		return nil
	}
	return s.row(r)
}

// row returns the bit row of rowVerts[r].
func (s *poolShard) row(r int) []uint64 {
	w := rowWords(s.indexed)
	return s.rows[r*w : (r+1)*w : (r+1)*w]
}

// extend indexes entries [indexed, len(sets)) and returns the member
// count absorbed — the modeled work of the pass (a decode step and a
// posting append per member). Counting sort over one offset array: a
// pass counts per-vertex additions, a second folds in the old counts and
// totals what rows would save, a classification pass turns the merged
// counts into sparse segment starts (row vertices are marked by a
// negative row number instead), a copy pass moves the old index into the
// new layout, and a fill pass appends the new entries, using the offsets
// as write cursors that are shifted back into the CSR index afterwards.
// Sparse entry ids stay ascending within each segment because old
// postings precede new ones and new entries are absorbed in ascending
// local id order. Callers must relink the pool's row ranks afterwards
// (shardedPool.linkRows).
func (s *poolShard) extend(n int32) (members int64) {
	if s.indexed == len(s.sets) {
		if s.covered == nil {
			s.covered = bitset.New(s.indexed)
		}
		return 0
	}
	nn := int(n)
	entries := len(s.sets)
	words := rowWords(entries)
	off := make([]int32, nn+1)
	count := func(v int32) { off[v+1]++ } // hoisted: one closure per pass, not per set
	for j := s.indexed; j < len(s.sets); j++ {
		set := s.sets[j]
		set.ForEach(count)
		members += int64(set.Size())
	}

	// Fold the old counts in, so off[v+1] becomes v's merged count, and
	// add up what rows would save. The old rowVerts ascend like v, so a
	// cursor finds the old rows.
	least := rowMin(entries)
	var saved int64
	oldRow := 0
	for v := 0; v < nn; v++ {
		if oldRow < len(s.rowVerts) && int(s.rowVerts[oldRow]) == v {
			off[v+1] += s.rowCnt[oldRow]
			oldRow++
		} else if s.postIdx != nil {
			off[v+1] += s.postIdx[v+1] - s.postIdx[v]
		}
		if c := off[v+1]; c >= least {
			saved += rowSaving(c, entries)
		}
	}
	rowsOn := rowsPay(saved, s.postCount+members)

	// Classify every vertex on its merged count. off[v+1] holds v's
	// count until iteration v rewrites off[v] (whose count was consumed
	// the iteration before) with v's sparse segment start, or with -(r+1)
	// for the r-th row vertex.
	var rowVerts, rowCnt []int32
	var sparse int32
	for v := 0; v < nn; v++ {
		c := off[v+1]
		if rowsOn && c >= least {
			rowVerts = append(rowVerts, int32(v))
			rowCnt = append(rowCnt, c)
			off[v] = -int32(len(rowVerts))
		} else {
			off[v] = sparse
			sparse += c
		}
	}
	off[nn] = sparse
	data := make([]int32, sparse)
	rows := make([]uint64, len(rowVerts)*words)

	// Move the old index into the new layout: rows widen by copy or fold
	// into postings; postings become row bits or copy across.
	oldRow = 0
	for v := 0; v < nn; v++ {
		var row []uint64
		var seg []int32
		if oldRow < len(s.rowVerts) && int(s.rowVerts[oldRow]) == v {
			row = s.row(oldRow)
			oldRow++
		} else {
			seg = s.postings(int32(v))
		}
		if o := off[v]; o < 0 {
			dst := rows[int(-o-1)*words:]
			copy(dst, row)
			for _, j := range seg {
				dst[j>>6] |= 1 << uint(j&63)
			}
			continue
		}
		off[v] += int32(len(appendRowEntries(data[off[v]:off[v]], row)))
		off[v] += int32(copy(data[off[v]:], seg))
	}

	var jj int32
	fill := func(v int32) {
		if o := off[v]; o < 0 {
			rows[int(-o-1)*words+int(jj>>6)] |= 1 << uint(jj&63)
		} else {
			data[o] = jj
			off[v] = o + 1
		}
	}
	for j := s.indexed; j < len(s.sets); j++ {
		jj = int32(j)
		s.sets[j].ForEach(fill)
	}
	// Each sparse cursor now sits at its segment's end; a row vertex's
	// (empty) segment ends where the previous one does. Restore those,
	// then shift right to recover the CSR index in place.
	var last int32
	for v := 0; v < nn; v++ {
		if off[v] < 0 {
			off[v] = last
		} else {
			last = off[v]
		}
	}
	copy(off[1:], off[:nn])
	off[0] = 0
	s.postIdx, s.postData = off, data
	s.rowVerts, s.rowCnt, s.rows = rowVerts, rowCnt, rows
	s.postCount += members
	s.indexBytes = 4*int64(len(data)) + 8*int64(len(rows))
	s.indexed = len(s.sets)
	if s.covered == nil {
		s.covered = bitset.New(s.indexed)
	} else {
		s.covered.Grow(s.indexed)
	}
	return members
}

// adoptPostings installs a full postings CSR (every vertex's entries,
// as a snapshot stores them) as the shard's index over all its entries,
// aliasing idx and data, and builds heap rows for the vertices rowMin
// selects. Postings are range-checked only where rows are built; the
// snapshot reader validates the rest.
func (s *poolShard) adoptPostings(n int32, idx, data []int32) error {
	entries := len(s.sets)
	if len(idx) != int(n)+1 || idx[0] != 0 || int(idx[n]) != len(data) {
		return fmt.Errorf("%w: index offsets do not frame %d postings", ErrPoolIncompatible, len(data))
	}
	least := rowMin(entries)
	var saved int64
	prev := idx[0]
	for v, next := range idx[1:] {
		if c := next - prev; c >= least {
			saved += rowSaving(c, entries)
		} else if c < 0 {
			return fmt.Errorf("%w: index offsets decrease at vertex %d", ErrPoolIncompatible, v)
		}
		prev = next
	}
	var rowVerts, rowCnt []int32
	sparse := int64(len(data))
	if rowsPay(saved, sparse) {
		for v := int32(0); v < n; v++ {
			if c := idx[v+1] - idx[v]; c >= least {
				rowVerts = append(rowVerts, v)
				rowCnt = append(rowCnt, c)
				sparse -= int64(c)
			}
		}
	}
	words := rowWords(entries)
	rows := make([]uint64, len(rowVerts)*words)
	for r, v := range rowVerts {
		dst := rows[r*words : (r+1)*words]
		for _, j := range data[idx[v]:idx[v+1]] {
			if j < 0 || int(j) >= entries {
				return fmt.Errorf("%w: posting %d outside %d entries", ErrPoolIncompatible, j, entries)
			}
			dst[j>>6] |= 1 << uint(j&63)
		}
	}
	s.postIdx, s.postData = idx, data
	s.rowVerts, s.rowCnt, s.rows = rowVerts, rowCnt, rows
	s.postCount = int64(len(data))
	s.indexBytes = 4*sparse + 8*int64(len(rows))
	s.indexed = entries
	return nil
}

// fullPostings returns the shard's index as a full postings CSR, row
// vertices included — the layout the .impool format stores. A shard
// without rows (or a thawed one, whose aliased postings are already
// full) returns its own arrays; otherwise the CSR is rebuilt.
func (s *poolShard) fullPostings(n int32) (idx, data []int32) {
	if len(s.rowVerts) == 0 || int64(len(s.postData)) == s.postCount {
		return s.postIdx, s.postData
	}
	idx = make([]int32, n+1)
	data = make([]int32, 0, s.postCount)
	r := 0
	for v := int32(0); v < n; v++ {
		idx[v] = int32(len(data))
		if r < len(s.rowVerts) && s.rowVerts[r] == v {
			data = appendRowEntries(data, s.row(r))
			r++
			continue
		}
		data = append(data, s.postings(v)...)
	}
	idx[n] = int32(len(data))
	return idx, data
}

// appendRowEntries appends the entry ids of row's set bits to dst,
// ascending.
func appendRowEntries(dst []int32, row []uint64) []int32 {
	for wi, w := range row {
		for w != 0 {
			dst = append(dst, int32(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// rowPrefix counts row's set bits below lim: a row vertex's occurrence
// count within a truncated view, as postPrefix is a sparse vertex's.
func rowPrefix(row []uint64, lim int) int64 {
	full := lim >> 6
	var c int
	for _, w := range row[:full] {
		c += bits.OnesCount64(w)
	}
	if r := uint(lim & 63); r != 0 {
		c += bits.OnesCount64(row[full] & (1<<r - 1))
	}
	return int64(c)
}

// indexBytesBelow returns what the shard's index would cost holding
// only its first lim entries (lim <= indexed): what a cold shard of that
// size reports. Only vertices at or above the row threshold over the
// whole shard can be rows at lim, which keeps the scan O(n) plus one
// prefix count per candidate (every row vertex, on a shard with rows).
func (s *poolShard) indexBytesBelow(p *shardedPool, lim int) int64 {
	if lim == s.indexed {
		return s.indexBytes
	}
	var members, saved int64
	for _, set := range s.sets[:lim] {
		members += int64(set.Size())
	}
	least := rowMin(lim)
	for v := int32(0); v < p.n; v++ {
		var c int32
		if row := s.rowOf(p.rank(v)); row != nil {
			c = int32(rowPrefix(row, lim))
		} else if post := s.postings(v); int32(len(post)) >= least {
			c = int32(postPrefix(post, int32(lim)))
		}
		if c >= least {
			saved += rowSaving(c, lim)
		}
	}
	if rowsPay(saved, members) {
		return 4*members - saved
	}
	return 4 * members
}

// shardedPool is the Efficient engine's pool: grow/put during
// generation, ensureIndexed + CELF during selection.
type shardedPool struct {
	n            int32
	count        int64
	totalMembers int64
	shards       [poolShards]poolShard
	// flat caches the id-ordered view for scan-mode selection. Slots
	// are write-once, so the cache only ever extends — never
	// invalidates.
	flat []rrr.Set
	// bytePrefix[i] / memberPrefix[i] hold the summed Bytes()/Size() of
	// sets [0, i), extended lazily like flat. They make the footprint
	// and truncated-view accounting O(1) per query instead of an
	// O(pool) rescan — the warm-serving hot path asks for both on every
	// request. Guarded by the same serialization as selection (the
	// engine runs one query at a time).
	bytePrefix   []int64
	memberPrefix []int64
	// gainScratch/versionScratch are the CELF kernel's per-call vertex
	// arrays, retained across selections so a batch of prefix answers
	// on a warm pool (many selections per round trip) does not
	// re-allocate 12 bytes per vertex per estimation round. Guarded by
	// the same one-query-at-a-time serialization as selection.
	gainScratch    []int64
	versionScratch []int32
	// rowRank numbers the vertices that hold a bit row in at least one
	// shard (-1 for the rest; nil while no shard has rows). Each shard's
	// rowAt is indexed by it, so finding a vertex's row in every shard is
	// one lookup here plus one per shard. Rebuilt by linkRows.
	rowRank []int32
	// indexBytes memoizes indexBytesBelow summed over shards per
	// truncated view limit: a warm pool answers the same few θ prefixes
	// again and again. Cleared whenever any shard's index changes.
	indexBytes map[int64]int64
}

func newShardedPool(n int32) *shardedPool { return &shardedPool{n: n} }

// shardOf maps a global set id to (shard, local entry id).
func shardOf(i int64) (int, int) { return int(i % poolShards), int(i / poolShards) }

// localLimit returns how many of shard s's entries hold global ids below
// limit — the per-shard horizon of a logically truncated pool view. Ids
// are striped round-robin, so shard s holds ids s, s+poolShards, ...
func localLimit(s int, limit int64) int {
	if int64(s) >= limit {
		return 0
	}
	return int((limit-1-int64(s))/poolShards) + 1
}

// rank returns v's pool-level row rank, or -1 when no shard holds a row
// for v.
func (p *shardedPool) rank(v int32) int32 {
	if p.rowRank == nil {
		return -1
	}
	return p.rowRank[v]
}

// linkRows rebuilds rowRank and every shard's rowAt from the shards'
// rowVerts. Every pass that extends, rebuilds or adopts a shard index
// calls it before selection reads the index again.
func (p *shardedPool) linkRows() {
	p.indexBytes = nil
	total := 0
	for s := range p.shards {
		total += len(p.shards[s].rowVerts)
	}
	if total == 0 {
		p.rowRank = nil
		for s := range p.shards {
			p.shards[s].rowAt = nil
		}
		return
	}
	if len(p.rowRank) != int(p.n) {
		p.rowRank = make([]int32, p.n)
	}
	clear(p.rowRank)
	for s := range p.shards {
		for _, v := range p.shards[s].rowVerts {
			p.rowRank[v] = 1
		}
	}
	var d int32
	for v, hit := range p.rowRank {
		if hit == 0 {
			p.rowRank[v] = -1
			continue
		}
		p.rowRank[v] = d
		d++
	}
	for s := range p.shards {
		sh := &p.shards[s]
		if cap(sh.rowAt) < int(d) {
			sh.rowAt = make([]int32, d)
		}
		sh.rowAt = sh.rowAt[:d]
		for i := range sh.rowAt {
			sh.rowAt[i] = -1
		}
		for r, v := range sh.rowVerts {
			sh.rowAt[p.rowRank[v]] = int32(r)
		}
	}
}

func (p *shardedPool) vertexCount() int32 { return p.n }
func (p *shardedPool) len() int64         { return p.count }

// grow pre-sizes every shard for ids up to target and returns the
// previous and new pool lengths.
func (p *shardedPool) grow(target int64) (from, to int64) {
	from = p.count
	if target <= from {
		return from, from
	}
	for s := range p.shards {
		// Entries shard s must hold for ids < target.
		need := int((target - int64(s) + poolShards - 1) / poolShards)
		sh := &p.shards[s]
		if need > len(sh.sets) {
			sh.sets = append(sh.sets, make([]rrr.Set, need-len(sh.sets))...)
		}
	}
	p.count = target
	return from, target
}

// put stores the set for global id i. Distinct ids map to distinct
// slots, so concurrent generation workers need no locking.
func (p *shardedPool) put(i int64, set rrr.Set) {
	s, j := shardOf(i)
	p.shards[s].sets[j] = set
}

// get returns the set for global id i.
func (p *shardedPool) get(i int64) rrr.Set {
	s, j := shardOf(i)
	return p.shards[s].sets[j]
}

func (p *shardedPool) addMembers(perWorker []int64) {
	for _, m := range perWorker {
		p.totalMembers += m
	}
}

// ensureIndexed extends every shard's inverted index over the entries
// generated since the last selection, in parallel across shards, and
// charges the decode-and-append work (2 ops per member) to the
// executing workers. Idempotent and cheap when nothing is new.
func (p *shardedPool) ensureIndexed(workers int, ops []int64) {
	stale := false
	for s := range p.shards {
		sh := &p.shards[s]
		stale = stale || sh.indexed < len(sh.sets) || sh.covered == nil
	}
	if !stale {
		return
	}
	sched.Static(workers, poolShards, func(w, s0, s1 int) {
		for s := s0; s < s1; s++ {
			ops[w] += 2 * p.shards[s].extend(p.n)
		}
	})
	p.linkRows()
}

// stats summarizes the pool in one walk over the shards.
func (p *shardedPool) stats() rrr.Stats { return p.statsUpTo(p.count) }

// statsUpTo summarizes the logically truncated view holding only global
// set ids below limit — what a pool that had stopped growing at θ=limit
// would report. The warm-serving engine uses it so a reused pool's
// result statistics match a cold run's exactly.
func (p *shardedPool) statsUpTo(limit int64) rrr.Stats {
	if limit > p.count {
		limit = p.count
	}
	var st rrr.Stats
	for i := int64(0); i < limit; i++ {
		st.Add(p.get(i))
	}
	st.Finalize(p.n)
	return st
}

// extendPrefixes grows the lazy byte/member prefix sums to cover set
// ids below limit. Amortized O(new sets) across a pool's lifetime.
func (p *shardedPool) extendPrefixes(limit int64) {
	if p.bytePrefix == nil {
		p.bytePrefix = []int64{0}
		p.memberPrefix = []int64{0}
	}
	for int64(len(p.bytePrefix)) <= limit {
		i := int64(len(p.bytePrefix)) - 1
		set := p.get(i)
		p.bytePrefix = append(p.bytePrefix, p.bytePrefix[i]+set.Bytes())
		p.memberPrefix = append(p.memberPrefix, p.memberPrefix[i]+int64(set.Size()))
	}
}

// membersUpTo returns Σ|R| over global set ids below limit.
func (p *shardedPool) membersUpTo(limit int64) int64 {
	if limit >= p.count {
		return p.totalMembers
	}
	p.extendPrefixes(limit)
	return p.memberPrefix[limit]
}

// bytesUpTo returns the summed set representation bytes below limit.
func (p *shardedPool) bytesUpTo(limit int64) int64 {
	if limit > p.count {
		limit = p.count
	}
	p.extendPrefixes(limit)
	return p.bytePrefix[limit]
}

// footprint reports resident pool bytes as they stand: set payloads for
// the whole pool, index bytes only for what selection actually indexed.
// A scan-mode run therefore reports IndexBytes 0 — it never builds the
// inverted view — which is the memory/selection-speed trade-off the
// harness sweep measures.
func (p *shardedPool) footprint() PoolFootprint {
	f := PoolFootprint{SetBytes: p.bytesUpTo(p.count)}
	for s := range p.shards {
		// Postings and row payloads. The n+1 offset array is a fixed
		// per-shard overhead excluded here so the figure stays comparable
		// across pool sizes.
		f.IndexBytes += p.shards[s].indexBytes
	}
	f.RawBytes = 4 * p.totalMembers
	return f
}

// footprintUpTo reports the footprint of the truncated view over global
// set ids below limit, as a cold pool of that size would have reported
// it after a CELF selection (index fully built over the view, rows
// classified at the view's shard sizes).
func (p *shardedPool) footprintUpTo(limit int64) PoolFootprint {
	if limit >= p.count {
		return p.footprint()
	}
	f := PoolFootprint{SetBytes: p.bytesUpTo(limit)}
	members := p.membersUpTo(limit)
	f.RawBytes = 4 * members
	// Charge index bytes only when selection actually built the inverted
	// view (a scan-mode pool never does and reports IndexBytes 0, the
	// same trade-off the full footprint reports).
	indexed := false
	for s := range p.shards {
		indexed = indexed || p.shards[s].indexed > 0
	}
	if !indexed {
		return f
	}
	for s := range p.shards {
		if p.shards[s].indexed < localLimit(s, limit) {
			// The view outgrew the index (no selection since the pool
			// grew): absorb the new sets first, as that selection would.
			p.ensureIndexed(1, make([]int64, 1))
			break
		}
	}
	index, ok := p.indexBytes[limit]
	if !ok {
		for s := range p.shards {
			index += p.shards[s].indexBytesBelow(p, localLimit(s, limit))
		}
		if p.indexBytes == nil {
			p.indexBytes = make(map[int64]int64)
		}
		p.indexBytes[limit] = index
	}
	f.IndexBytes = index
	return f
}

// flatten returns the id-ordered []rrr.Set view the scan-mode selection
// and the round-trip tests consume, extending the cached view over any
// sets generated since the last call. Callers must not mutate it.
func (p *shardedPool) flatten() []rrr.Set {
	for i := int64(len(p.flat)); i < p.count; i++ {
		p.flat = append(p.flat, p.get(i))
	}
	return p.flat
}
