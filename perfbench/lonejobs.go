package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite" // register all nine kernels
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// warmReplays is how many times lone-jobs resubmits its jobs to the
// scheduler that already holds their results. One replay takes well under
// a millisecond, so a GC cycle slows a sizable share of a short series;
// over a thousand replays that share is steady and the median is too.
const warmReplays = 1000

// loneJobs are the nine kernels on both paper clusters, small class, at
// 1152 ranks on ClusterA (all 16 nodes) and 832 on ClusterB (8 nodes),
// each simulating one step so that a pass over all 18 fits a run several
// times.
func loneJobs() []spec.RunSpec {
	var jobs []spec.RunSpec
	for _, c := range []struct {
		name  string
		ranks int
	}{{"ClusterA", 1152}, {"ClusterB", 832}} {
		cs := machine.MustGet(c.name)
		for _, b := range bench.Names() {
			jobs = append(jobs, spec.RunSpec{
				Benchmark: b, Class: bench.Small, Cluster: cs, Ranks: c.ranks,
				Options: bench.Options{SimSteps: 1},
			})
		}
	}
	return jobs
}

// warmUp runs one small single-node job, so that the process's pools and
// lazily built tables exist before a pass is timed. It counts as set-up.
func warmUp() error {
	_, err := spec.Run(spec.RunSpec{
		Benchmark: "lbm", Class: bench.Small, Cluster: machine.MustGet("ClusterA"), Ranks: 72,
		Options: bench.Options{SimSteps: 1},
	})
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	return nil
}

func runLoneJobs(r *run) error {
	refs, err := loadJobRefs(r.cfg.refDir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	ctx := context.Background()
	// Per job, one latency (ms) and CPU time (s) per pass.
	perJob, perJobCPU := map[string][]float64{}, map[string][]float64{}
	err = r.passes(func(i int, tr *tracer) error {
		jobs := loneJobs()
		if r.cfg.size > 0 {
			jobs = jobs[:r.cfg.size]
		}
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })

		t0 := time.Now()
		if err := warmUp(); err != nil {
			return err
		}
		runner := &timedRunner{tr: tr}
		sched := campaign.NewScheduler(r.cfg.nproc, nil)
		sched.SetRunner(runner.run)
		defer sched.Close()
		r.setup = append(r.setup, time.Since(t0).Seconds())

		stop, err := r.profile(i, tr)
		if err != nil {
			return err
		}
		mem0, ps0 := readMem(), psim.Snapshot()
		var wall, cpu float64
		results := make([]spec.RunResult, len(jobs))
		for k, rs := range jobs {
			// Each job starts from a collected heap, as it would in a
			// process of its own; the collection is not timed.
			runtime.GC()
			var id int64
			if tr != nil {
				key := campaign.Key(rs)
				id = tr.begin("job", key, 0)
				tr.own(key, id)
			}
			c1, t1 := cpuSeconds(), time.Now()
			out := sched.Submit(ctx, rs).Wait(ctx)
			d := time.Since(t1)
			c := cpuSeconds() - c1
			cpu += c
			wall += d.Seconds()
			perJob[jobName(rs)] = append(perJob[jobName(rs)], float64(d)/1e6)
			perJobCPU[jobName(rs)] = append(perJobCPU[jobName(rs)], c)
			tr.end(id)
			r.attempted++
			results[k] = out.Result
			switch ref, ok := refs[jobName(rs)]; {
			case out.Err != nil:
				r.fail("%s: %v", jobName(rs), out.Err)
			case !ok:
				r.fail("%s: no reference", jobName(rs))
			case !ref.matches(refOf(out.Result.Usage)):
				r.fail("%s: got %+v, reference %+v", jobName(rs), refOf(out.Result.Usage), ref)
			}
		}
		r.wall = append(r.wall, wall)
		r.cpu = append(r.cpu, cpu)
		r.jobs += len(jobs)
		mem1, ps1 := readMem(), psim.Snapshot()
		if err := stop(); err != nil {
			return err
		}
		st := sched.Stats()

		// Warm: the same jobs again, answered from the scheduler's memo.
		runtime.GC()
		for range warmReplays {
			t0 := time.Now()
			ok := true
			for k, rs := range jobs {
				out := sched.Submit(ctx, rs).Wait(ctx)
				ok = ok && out.Err == nil && out.Result.Usage.Wall == results[k].Usage.Wall
			}
			r.warm = append(r.warm, time.Since(t0).Seconds())
			r.attempted++
			if !ok {
				r.fail("warm: a replayed job did not return its memoized result")
			}
		}

		if i == 1 && tr != nil {
			campaignLayers(r.layers, st)
			runnerLayers(r.layers, runner, wall, r.cfg.nproc)
			storeLayers(r.layers)
			psimLayers(r.layers, ps0, ps1, runner)
			memLayers(r.layers, mem0, mem1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Each job counts with its median over passes, so a burst of host noise
	// in one pass moves neither the totals nor the tail, which with 18
	// jobs is the slowest job.
	var wall, cpu float64
	for name, ms := range perJob {
		r.lat = append(r.lat, pct(ms, 50))
		wall += pct(ms, 50) / 1e3
		cpu += pct(perJobCPU[name], 50)
	}
	r.wall, r.cpu, r.jobs = []float64{wall}, []float64{cpu}, len(perJob)
	return nil
}
