// Command perfbench is the repository's benchmark. It runs one named
// workload against the ingest, graph, imm and serve layers, checks every
// answer against a cold reference solve, and prints its metrics as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 8 --trace 0
//
// run.sh builds the binary from the checkout's sources; `go run .` from
// this directory does the same by hand. Every input (graphs, query
// sequences, tenant seeds, deltas) is derived from --seed, and the same
// seed sends the same sequence of operations, so two runs differ only in
// timing. A line before the result stamps the run's environment: nproc,
// GOMAXPROCS, Go version, CPU model and the host's steal share over the
// measured phase. Read that share before the figures: on a shared 2-vCPU
// virtual machine, hypervisor steal came in episodes of minutes, and a
// steal share near 0.2 slowed the serve workloads by a third to a half
// and solve-ic by about a tenth.
//
// # Workloads
//
// All load comes from this process, with at most nproc clients, and
// every engine runs with Workers = nproc.
//
//   - solve-ic: one closed-loop client repeats a one-shot imm.Run (k=50,
//     ε=0.5) on the web-Google clone at scale 12 under uniform [0,1) IC,
//     ingested from edge-list text in setup; each solve uses one of three
//     seeded RNG seeds. The paper's workload; generation dominates it.
//   - serve-warm: two closed-loop clients send a seeded mix of
//     k∈{10,25,50} and ε∈{0.3,0.5} over RNG seeds 1 and 2 to the same
//     graph, registered as an .imsnap, with both pools warmed for every
//     shape in setup. Nothing is generated while measuring, so selection,
//     the planner and sched do all the work: the bypass workload for any
//     generation change.
//   - serve-tier: two closed-loop clients spread k=50, ε=0.5 queries
//     over six seeded tenants on a scale-16 R-MAT (edge factor 8) under
//     weighted cascade, with a PoolDir and a RAM budget that holds two
//     pools; setup warms all six, so the measured queries hit, or promote
//     a demoted pool. The only workload where freeze, .impool write,
//     mmap, CRC, validate and thaw run.
//
// A fourth workload, a closed-loop reader beside an open-loop writer of
// edge deltas, was left out: the writer's repairs took a share of the
// host that grew with hypervisor steal, so its reader's figures moved by
// more than a quarter between sets of runs. Graph deltas and pool repair
// are still measured, by the layer replay of every traced run.
//
// Serving traffic goes through serve.Server.Handler in process: JSON in,
// JSON out, no socket.
//
// # Checks
//
// Each answer is compared with a cold imm.Run computed outside the timed
// phase, with options from serve.Options.EngineOptions on serve-*. A
// mismatch or an error counts as failed.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: from the first program call (ingest, or snapshot
//     registration) until every pool is warm; the median of several
//     setups. Input generation is excluded.
//   - op_s_p50: median latency of the primary operation. On solve-ic
//     one solve; on serve-* one query, from the request being sent to
//     its response being decoded.
//   - ops_per_s: successful primary operations per second.
//   - peak_rss_mb: peak anonymous resident memory over the measured
//     phase. File-backed pages (mapped pool snapshots) are excluded; the
//     kernel reclaims them at will.
//
// Every end-to-end metric is reported on every workload and is never
// zero, so failures are the result line's "failed" out of "attempted"
// rather than a metric. A p90 latency is not reported: a 15-second run
// holds 15 to 220 operations, too few on solve-ic for ten beyond the
// 90th percentile, and on the serve workloads the p90 moved from run to
// run by more than the bound the benchmark can afford.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures twice: once untraced, once with spans kept in
// memory (name, start, end, parent, request id) and written with their
// self times to .bench_build/perfbench/traces when the run ends.
// trace.overhead_frac is the traced median latency over the untraced
// one, minus one. The layer
// metrics come from timing the benchmark's own calls into each layer: it
// wraps the imm.Engine it passes to imm.RunEngine, and where serve hides
// a layer it replays the workload's graph, query shapes and deltas
// through that layer's public functions. Every metric is measured on
// every workload; each is listed with the end-to-end metric it should
// move.
//
//	ingest.parse_s, ingest.parse_mb_per_s   ingest.Bytes       setup_s on solve-ic
//	ingest.snapshot_read_s                  ReadSnapshotFile   setup_s on serve-*
//	ingest.pool_write_s_p50                 WritePoolSnapshotFile
//	ingest.pool_map_s_p50                   MapPoolSnapshotFile + ValidatePoolGraph
//	                                        (both: op_s_p50 on serve-tier)
//	imm.generate_s, imm.generate_ns_per_set, imm.generate_allocs_per_set,
//	imm.sets_per_solve, imm.pool_mb         Engine.Generate spans, per pool built:
//	                                        op_s_p50 on solve-ic, setup_s on serve-*,
//	                                        no change on serve-warm op_s_p50
//	imm.select_s, imm.select_calls          Engine.SelectSeeds spans: op_s_p50 on solve-ic
//	imm.run_self_s                          RunEngine self time (θ estimation driver)
//	imm.answer_s_p50, imm.answer_allocs     WarmEngine.AnswerBatch: op_s_p50, ops_per_s on serve-warm
//	imm.repair_s_p50, imm.repair_resampled_frac
//	                                        WarmEngine.ApplyDelta: serve.delta_s_p50
//	imm.freeze_s_p50, imm.thaw_s_p50        Freeze, ThawWarmEngine: op_s_p50 on serve-tier
//	graph.apply_delta_s_p50, graph.dirty_per_delta
//	                                        graph.ApplyDelta: serve.delta_s_p50
//	rrr.mean_set_size, rrr.bitmap_frac      Result.SetStats: explain generation and
//	                                        selection shifts on solve-ic
//	sched.speedup                           solve at Workers=1 over Workers=nproc:
//	                                        op_s_p50 on solve-ic
//	serve.query_self_s_p50                  Server.Query minus the AnswerBatch replay:
//	                                        op_s_p50 on serve-warm
//	serve.handler_self_s_p50                handler round trip minus the service time
//	                                        the server reports for the same request
//	                                        (QueryResult.WallMS): op_s_p50 on serve-*
//	serve.delta_s_p50                       the replayed deltas' handler round trip; no
//	                                        end-to-end metric, as no workload writes
//	serve.allocs_per_query, serve.warm_hit_ratio, serve.batched_frac,
//	serve.generated_sets_per_query, serve.rejected
//	                                        Server.Stats and alloc counters: op_s_p50,
//	                                        ops_per_s on serve-warm
//	serve.repaired_sets_per_delta           the replayed deltas' reply: serve.delta_s_p50
//	serve.demotions_per_query, serve.promotions_per_query, serve.promote_failures
//	                                        Server.Stats: op_s_p50 on serve-tier
//	go.gc_cpu_frac, go.alloc_mb_per_op      runtime/metrics: every metric
//	host.steal_frac                         /proc/stat: nothing; explains noisy runs
//
// The serve.* query counters come from the workload's traced phase on
// serve-*, and from a replay server on solve-ic, which has no server of
// its own.
// Both self times come from the replay server, which has no RAM budget:
// under one, Server.Query demotes pools after it has measured WallMS, and
// that work would land on the handler. Server.Query's self time is
// the difference between a query and the mean of the two engine answers
// around it, calls of about 0.1 s each; it holds the 2 ms gather window
// and resolves to a few milliseconds on a shared 2-vCPU host, so a
// single replay can read below zero. The metric is the median of every
// replayed pair.
//
// Not measured: the cluster path (dist, wire, route) and the LT model.
package main
