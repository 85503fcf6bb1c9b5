// Command perfbench is the repository's benchmark. It drives the simulator
// only through the public entry points of its modules, times those calls
// from its own files, checks every answer against reference values kept
// in testdata/, and prints the metrics of one workload, by name and unit,
// with a JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// The benchmark is one process with GOMAXPROCS and the campaign worker
// pool both set to the host's core count. A run repeats its workload's
// pass until --seconds is spent (at least three passes) and reports
// medians over passes. --trace 1 alternates untraced and traced passes
// and reports the per-layer metrics of the first traced pass instead:
// spans recorded in memory at each layer boundary, the CPU profile of the
// measured phase bucketed by package with go tool pprof, and the tracing
// overhead as traced minus untraced wall time. Every run appends a
// host-stamped record to .bench_build/perfbench/results.jsonl;
// --summarize prints the medians, quartiles and first-half versus
// second-half agreement of such a ledger. --record rewrites testdata/
// from the current code.
//
// # Workloads
//
// paper: cold regeneration of every built-in experiment (figures.All) at
// quick resolution on an empty DirStore, then ten warm regenerations
// with fresh engines on the store it wrote. The seed shuffles the
// experiment order; artifacts must not depend on it. The scheduler never
// grants the parallel engine (psim) while the pool is busy, so psim is
// bypassed here.
//
// lone-jobs: the nine kernels on both clusters, small class, one
// simulated step, at 1152 ranks on ClusterA and 832 on ClusterB, each
// submitted alone to a campaign.Scheduler and awaited before the next.
// The idle pool grants every core to psim, so the event engine and
// process switching dominate; the store and memo are idle.
//
// serve-jobs: per pass, a fresh service over a store pre-warmed with a
// seeded half of a tiny-class universe (nine kernels, two clusters, every
// node-level rank count, one step) and a surrogate fitted from it, then
// 3000 requests from a closed loop of one client per core, each on its
// own keep-alive connection: POST /api/v1/jobs, then a status poll every
// millisecond until done. Keys follow a seeded Zipf law; 30% of requests
// ask for mode=fast.
//
// # End-to-end metrics
//
// A job is the workload's unit of user work: a fresh simulation on paper,
// a submitted job on lone-jobs, an HTTP request (POST until it reads done)
// on serve-jobs. setup_s is the time to build a pass's inputs and system
// (one small warm-up simulation on paper and lone-jobs; the pre-warmed
// store and fitted surrogate on serve-jobs); wall_s and cpu_s cover one
// pass's measured work; warm_s is the same work again from the warm system
// (store, memo, or the warm service); jobs_per_s is jobs over measured wall
// time. On lone-jobs each job counts with its median latency and CPU time
// over passes, and job_p99_ms there is the slowest job. fail_frac, failed over attempted
// operations (fresh simulations, experiments and artifacts on paper, jobs
// on lone-jobs, requests on serve-jobs), is printed and carried by the
// result's failed and attempted fields; it reads 0 on correct code, so it
// is not a bounded metric. Peak resident memory is reported by traced runs
// as go.peak_rss_mb: it follows GC timing and varies by up to a third
// between runs, too much to bound.
//
// # Which layer metric should move which end-to-end metric
//
//	layer       per-layer metrics                            moves                       on
//	figures     figures.node_s, figures.multinode_s          wall_s                      paper
//	campaign    campaign.* (coalesced is timing-bound)       wall_s, jobs_per_s          paper, serve-jobs
//	spec        spec.*                                       wall_s; job_p99_ms          paper, lone-jobs; serve-jobs
//	store       store.*                                      warm_s, wall_s; job_p50_ms  paper; serve-jobs
//	service     service.*                                    job_p50_ms, jobs_per_s      serve-jobs
//	surrogate   surrogate.*                                  setup_s, job_p50_ms         serve-jobs
//	psim        psim.*                                       wall_s, cpu_s               lone-jobs (0 on paper)
//	engine      cpu.kernels_frac                             wall_s, cpu_s               paper
//	            cpu.sim_frac, cpu.sched_frac, cpu.psim_frac  wall_s, cpu_s               lone-jobs
//	            cpu.service_frac                             job_p50_ms, jobs_per_s      serve-jobs
//	Go runtime  go.*                                         cpu_s                       all
//
// A kernel change should show mostly on paper, an engine or coroutine
// change mostly on lone-jobs, and neither should move serve-jobs'
// job_p50_ms. A service or store change should move serve-jobs and
// warm_s and leave lone-jobs flat.
package main
