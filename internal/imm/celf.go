package imm

import (
	"math/bits"
	"sort"

	"repro/internal/counter"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// postPrefix returns how many of post's ascending local entry ids lie
// below lim — a vertex's occurrence count within a truncated pool view.
func postPrefix(post []int32, lim int32) int {
	if len(post) == 0 || post[0] >= lim {
		return 0
	}
	if post[len(post)-1] < lim {
		return len(post)
	}
	return sort.Search(len(post), func(i int) bool { return post[i] >= lim })
}

// Parallel lazy-greedy (CELF) seed selection over the sharded pool's
// inverted index.
//
// The eager kernel (SelectOnSetsScan) re-establishes the exact marginal
// gain of every vertex after every seed; CELF exploits submodularity —
// marginal coverage gain never increases as coverage grows — to keep
// cached gains as upper bounds in per-shard max heaps and recompute only
// the candidates that actually surface. A candidate is selected the
// moment its cached gain is known to be current, because every other
// cached gain is an upper bound that the heap order already places below
// it.
//
// Determinism: the heap order and the cross-heap reduction both use
// (gain desc, vertex asc) — counter.GainLess — which is exactly the
// tie-break of the eager argmax. Gains are integers, shard layout is
// fixed (poolShards does not depend on the worker count), and the
// parallel passes only partition the read-only index, so the selected
// seed sequence is byte-identical to SelectOnSetsScan at any worker
// count. The tests pin this across workers ∈ {1,2,4,8} and both pool
// representations.
func (p *shardedPool) selectCELF(base *counter.Counter, workers, k int) (seeds []int32, coverage float64, modeledOps float64) {
	return p.selectCELFLimited(base, workers, k, p.count)
}

// selectCELFLimited is selectCELF restricted to the logically truncated
// pool view of global set ids below limit — the warm-serving seam. A
// pool physically grown to θ_max answers a query whose own trajectory
// stopped at θ = limit ≤ θ_max with exactly the seeds a cold pool of
// limit sets would have returned: postings are appended in ascending
// local-id order, so each shard's view is the prefix below
// localLimit(s, limit), and every gain computation, stale recompute,
// and coverage retirement stops at that horizon. base is only consulted
// for the full view; a truncated view derives its gains from posting
// prefixes (equal to the fused counts a cold run would have passed,
// because fusion merely pre-aggregates occurrence counts of the same
// sets).
func (p *shardedPool) selectCELFLimited(base *counter.Counter, workers, k int, limit int64) (seeds []int32, coverage float64, modeledOps float64) {
	if limit > p.count {
		limit = p.count
	}
	nsets := limit
	full := limit == p.count
	if !full {
		base = nil
	}
	var localLim [poolShards]int32
	for s := range localLim {
		localLim[s] = int32(localLimit(s, limit))
	}
	n := int(p.n)
	w := workers
	if w < 1 {
		w = 1
	}
	if nsets == 0 || k == 0 {
		return nil, 0, 0
	}

	ops := make([]int64, w)
	var serial int64 // critical-path work of the sequential heap machinery

	// Recompute and retire run inline over the shards: each touches one
	// row of words or a few postings per shard, far below the cost of a
	// fork/join. Their modeled work is still charged to the worker the
	// static shard partition would have run the shard on.
	var shardWorker [poolShards]int
	sw := min(w, poolShards)
	for wk := 0; wk < sw; wk++ {
		for s := wk * poolShards / sw; s < (wk+1)*poolShards/sw; s++ {
			shardWorker[s] = wk
		}
	}

	// Bring the inverted index up to date with the pool (no-op unless
	// the pool grew since the last selection) and clear the coverage
	// scratch.
	p.ensureIndexed(w, ops)
	for s := range p.shards {
		p.shards[s].covered.Reset()
		ops[shardWorker[s]] += int64(p.shards[s].indexed)/64 + 1
	}

	// Initial gains: the fused base counter when it is fresh (a
	// streaming copy), else a per-shard count — row popcount or posting
	// length, prefix-limited on a truncated view — both equal each
	// vertex's occurrence count over the view. Both branches overwrite
	// every slot, so the scratch needs no clearing.
	if cap(p.gainScratch) < n {
		p.gainScratch = make([]int64, n)
	}
	gains := p.gainScratch[:n]
	if base != nil {
		src := base.Raw()
		sched.Static(w, n, func(wk, lo, hi int) {
			copy(gains[lo:hi], src[lo:hi])
			ops[wk] += int64(hi-lo)/8 + 1
		})
	} else {
		sched.Static(w, n, func(wk, lo, hi int) {
			for v := lo; v < hi; v++ {
				d := p.rank(int32(v))
				var g int64
				for s := range p.shards {
					sh := &p.shards[s]
					row := sh.rowOf(d)
					switch {
					case row == nil && full:
						g += int64(len(sh.postings(int32(v))))
					case row == nil:
						g += int64(postPrefix(sh.postings(int32(v)), localLim[s]))
					case full:
						g += int64(sh.rowCnt[sh.rowAt[d]])
					default:
						g += rowPrefix(row, int(localLim[s]))
					}
				}
				gains[v] = g
			}
			ops[wk] += int64(hi - lo)
		})
	}

	// Per-shard max-gain heaps over fixed contiguous vertex regions.
	regions := poolShards
	if regions > n {
		regions = n
	}
	heaps := make([]*counter.GainHeap, regions)
	sched.Static(w, regions, func(wk, r0, r1 int) {
		for r := r0; r < r1; r++ {
			lo, hi := r*n/regions, (r+1)*n/regions
			h := counter.NewGainHeap(hi - lo)
			for v := lo; v < hi; v++ {
				h.Append(gains[v], int32(v))
			}
			h.Init()
			heaps[r] = h
			ops[wk] += int64(hi - lo)
		}
	})

	// version[v] is the selection round v's cached gain was computed at;
	// a cached gain is exact iff nothing has been covered since. Round 0
	// gains are exact by construction, so the scratch must start zeroed.
	if cap(p.versionScratch) < n {
		p.versionScratch = make([]int32, n)
	}
	version := p.versionScratch[:n]
	clear(version)
	seeds = make([]int32, 0, k)
	var coveredCount int64

	for len(seeds) < k && len(seeds) < n {
		round := int32(len(seeds))
		chosen := int32(-1)
		for {
			// Reduce the per-shard heap tops under the heap's own order.
			bestR := -1
			var best counter.GainItem
			for r, h := range heaps {
				if top, ok := h.Top(); ok {
					if bestR < 0 || counter.GainLess(top, best) {
						bestR, best = r, top
					}
				}
			}
			serial += int64(len(heaps))
			if bestR < 0 {
				break // every vertex already selected
			}
			if version[best.Vertex] == round {
				// Exact gain on top: it dominates every cached upper
				// bound under (gain desc, id asc), so it is the argmax.
				heaps[bestR].Pop()
				serial += int64(log2i(heaps[bestR].Len() + 1))
				chosen = best.Vertex
				break
			}
			// Stale: recompute the true gain by counting the uncovered
			// entries of the candidate's row or postings in every shard.
			v := best.Vertex
			d := p.rank(v)
			var g int64
			for s := range p.shards {
				sh := &p.shards[s]
				lim := localLim[s]
				var walked int64
				if row := sh.rowOf(d); row != nil {
					g += rowUncovered(row, sh.covered.Words(), int(lim), false)
					walked = int64(rowWords(int(lim)))
				} else {
					for _, j := range sh.postings(v) {
						if j >= lim {
							break // beyond the view's horizon
						}
						walked++
						if !sh.covered.Test(int(j)) {
							g++
						}
					}
				}
				ops[shardWorker[s]] += walked + 1
			}
			version[v] = round
			heaps[bestR].UpdateTop(g)
			serial += int64(log2i(heaps[bestR].Len() + 1))
		}
		if chosen < 0 {
			break
		}
		seeds = append(seeds, chosen)

		// Retire the seed's coverage: OR its row (or mark its postings)
		// into each shard's coverage and count the newly covered entries.
		// This is the whole counter maintenance — no decrement/rebuild
		// pass over set members.
		d := p.rank(chosen)
		for s := range p.shards {
			sh := &p.shards[s]
			lim := localLim[s]
			var walked int64
			if row := sh.rowOf(d); row != nil {
				coveredCount += rowUncovered(row, sh.covered.Words(), int(lim), true)
				walked = int64(rowWords(int(lim)))
			} else {
				for _, j := range sh.postings(chosen) {
					if j >= lim {
						break
					}
					walked++
					if !sh.covered.TestAndSet(int(j)) {
						coveredCount++
					}
				}
			}
			ops[shardWorker[s]] += walked + 1
		}
	}
	return seeds, float64(coveredCount) / float64(nsets), float64(maxOf(ops)) + float64(serial)
}

// rowUncovered counts the bits of row below lim that cov lacks — the
// word-parallel form of a posting walk, 64 entries per AND-NOT and
// popcount. With retire set it also ORs those bits into cov. Bits of row
// at or beyond lim (entries outside a truncated view) are masked off.
func rowUncovered(row, cov []uint64, lim int, retire bool) int64 {
	nw := lim >> 6
	row, cov = row[:rowWords(lim)], cov[:rowWords(lim)]
	var g int
	for i := 0; i < nw; i++ {
		x := row[i] &^ cov[i]
		g += bits.OnesCount64(x)
		if retire {
			cov[i] |= x
		}
	}
	if r := uint(lim & 63); r != 0 {
		x := row[nw] &^ cov[nw] & (1<<r - 1)
		g += bits.OnesCount64(x)
		if retire {
			cov[nw] |= x
		}
	}
	return int64(g)
}

// Selector is an incremental Find_Most_Influential_Set front-end over
// an externally owned, append-only set collection: Extend absorbs new
// sets into the sharded inverted index, Select runs the parallel CELF
// kernel over everything absorbed so far. Front-ends whose pool grows
// across θ-estimation rounds (the distributed runtime's gathered rank-0
// pool) index each set exactly once instead of rebuilding per round,
// matching the shared-memory engine's incremental accounting.
type Selector struct {
	p *shardedPool
}

// NewSelector returns an empty Selector over an n-vertex graph.
func NewSelector(n int32) *Selector { return &Selector{p: newShardedPool(n)} }

// Extend appends sets to the selector's pool. Sets already absorbed
// must not be passed again; callers feed each θ round's new slice.
//
// The sets are retained by reference, not copied: arena-backed sets
// (rrr.Policy.BuildArena) must come from an arena that outlives the
// selector. A caller that resets or reuses its arena between rounds must
// pass rrr.ListSet.Detach()ed copies instead — see the ownership
// contract on rrr.ListSet.Raw.
func (s *Selector) Extend(sets []rrr.Set, workers int) {
	from := s.p.count
	s.p.grow(from + int64(len(sets)))
	w := workers
	if w < 1 {
		w = 1
	}
	members := make([]int64, w)
	sched.Static(w, len(sets), func(wk, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.p.put(from+int64(i), sets[i])
			members[wk] += int64(sets[i].Size())
		}
	})
	s.p.addMembers(members)
}

// Select runs the CELF kernel over every set absorbed so far. Semantics
// and determinism match SelectOnSets.
func (s *Selector) Select(base *counter.Counter, workers, k int) (seeds []int32, coverage float64, modeledOps float64) {
	return s.p.selectCELF(base, workers, k)
}

// SelectOnSets is the Find_Most_Influential_Set kernel over an explicit
// pool: it builds a transient sharded inverted index over sets and runs
// the parallel CELF selection, so front-ends that gather flat set slices
// inherit the lazy-greedy path unchanged (growing pools should hold a
// Selector instead and pay the indexing once). base, when non-nil, must
// already hold the occurrence counts of every member of sets (the fused
// counter; in the distributed runtime, the allreduced per-rank
// counters); when nil the gains are read off the index. totalMembers is
// Σ|R| over sets.
//
// The update strategy is accepted for signature compatibility with the
// eager kernel but is not consulted: CELF retires coverage by walking
// postings, making the decrement/rebuild trade-off moot. Callers that
// specifically want the adaptive-update kernel (the Figure 5 ablation)
// use SelectOnSetsScan.
//
// The kernel is deterministic for a given pool regardless of workers, so
// any front-end selecting over the same sets returns the same seeds —
// the property the distributed runtime's bit-identical guarantee rests
// on.
func SelectOnSets(n32 int32, sets []rrr.Set, totalMembers int64, base *counter.Counter, workers int, update counter.UpdateStrategy, k int) (result []int32, coverage float64, modeledOps float64) {
	_ = update
	_ = totalMembers // recomputed by Extend from the sets themselves
	s := NewSelector(n32)
	s.Extend(sets, workers)
	return s.Select(base, workers, k)
}
