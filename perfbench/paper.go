package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/figures"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
)

// The paper workload regenerates every artifact at the quick sweep
// resolution (cmd/figures -quick): the full resolution takes ~46 s cold on
// two cores, longer than one benchmark run may measure. Each pass is a cold
// regeneration on an empty store with a fresh engine, followed by
// warmPasses regenerations from the store it wrote, each with a fresh
// engine on the same directory.
const warmPasses = 10

// multiNode marks the Sect. 5 experiments; the rest are Sect. 4.
var multiNode = map[string]bool{"fig5": true, "cases": true, "fig6": true}

// paperExperiments returns the first n built-in experiments (n <= 0: all),
// shuffled by rng (nil keeps paper order). The artifacts must not depend
// on the order.
func paperExperiments(rng *rand.Rand, n int) []figures.Experiment {
	exps := figures.All()
	if n > 0 {
		exps = exps[:n]
	}
	if rng != nil {
		rng.Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })
	}
	return exps
}

func newPaperEngine(nproc int, store campaign.Store, runner campaign.Runner) *campaign.Engine {
	s := campaign.NewScheduler(nproc, store)
	if runner != nil {
		s.SetRunner(runner)
	}
	return campaign.NewWithScheduler(s)
}

// regen is the outcome of one regeneration.
type regen struct {
	text map[string][]byte  // experiment id -> tables and plots it printed
	secs map[string]float64 // experiment id -> seconds in Run
}

// regenerate runs the experiments in order, writing CSVs into out. cur,
// when set, holds the running experiment's span for simulations to nest
// under.
func regenerate(eng *campaign.Engine, out string, exps []figures.Experiment, tr *tracer, cur *atomic.Int64) (regen, error) {
	g := regen{text: map[string][]byte{}, secs: map[string]float64{}}
	ctx := &figures.Context{OutDir: out, Quick: true, Engine: eng}
	for _, e := range exps {
		var buf bytes.Buffer
		ctx.W = &buf
		id := tr.begin("figures."+e.ID, "", 0)
		if cur != nil {
			cur.Store(id)
		}
		t0 := time.Now()
		err := e.Run(ctx)
		g.secs[e.ID] = time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return g, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		g.text[e.ID] = buf.Bytes()
	}
	return g, nil
}

func runPaper(r *run) error {
	refDir := filepath.Join(r.cfg.refDir, "paper")
	refNames, err := csvNames(refDir)
	if err != nil || len(refNames) == 0 {
		return fmt.Errorf("no paper references in %s", refDir)
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	return r.passes(func(i int, tr *tracer) error {
		exps := paperExperiments(rng, r.cfg.size)

		t0 := time.Now()
		if err := warmUp(); err != nil {
			return err
		}
		dir := filepath.Join(r.cfg.workDir, fmt.Sprintf("paper-%d", i))
		ds, err := campaign.NewDirStore(filepath.Join(dir, "store"))
		if err != nil {
			return err
		}
		var cur atomic.Int64
		store := &timedStore{inner: ds, tr: tr, parent: cur.Load}
		runner := &timedRunner{tr: tr, parent: cur.Load}
		eng := newPaperEngine(r.cfg.nproc, store, runner.run)
		r.setup = append(r.setup, time.Since(t0).Seconds())

		stop, err := r.profile(i, tr)
		if err != nil {
			return err
		}
		mem0, ps0, cpu0 := readMem(), psim.Snapshot(), cpuSeconds()
		t0 = time.Now()
		cold, err := regenerate(eng, filepath.Join(dir, "cold"), exps, tr, &cur)
		eng.Scheduler().Close() // waits for any simulation still running
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		mem1, ps1 := readMem(), psim.Snapshot()
		if err := stop(); err != nil {
			return err
		}
		r.attempted += runner.runs + len(exps)
		if err != nil {
			r.fail("%v", err)
			return nil
		}
		r.wall = append(r.wall, wall)
		r.cpu = append(r.cpu, cpu)
		r.lat = append(r.lat, runner.runMs.values()...)
		r.jobs += runner.runs
		for range runner.fails {
			r.fail("paper: a fresh simulation failed")
		}
		r.checkArtifacts(refDir, refNames, filepath.Join(dir, "cold"), exps)

		// Warm regenerations: a fresh engine on the directory the cold pass
		// wrote must serve everything from the store, byte for byte.
		var warmStore *timedStore
		for k := 0; k < warmPasses; k++ {
			ds, err := campaign.NewDirStore(filepath.Join(dir, "store"))
			if err != nil {
				return err
			}
			ws := &timedStore{inner: ds}
			if k == 0 {
				ws.tr, warmStore = tr, ws
			}
			eng := newPaperEngine(r.cfg.nproc, ws, nil)
			out := filepath.Join(dir, fmt.Sprintf("warm-%d", k))
			runtime.GC()
			t0 := time.Now()
			warm, err := regenerate(eng, out, exps, nil, nil)
			eng.Scheduler().Close()
			r.warm = append(r.warm, time.Since(t0).Seconds())
			r.attempted++
			if err != nil {
				r.fail("warm: %v", err)
				continue
			}
			if fresh := eng.Stats().Misses; fresh != 0 {
				r.fail("warm: %d fresh simulations, want 0", fresh)
			}
			for _, e := range exps {
				if !bytes.Equal(warm.text[e.ID], cold.text[e.ID]) {
					r.fail("warm: %s printed different output than the cold pass", e.ID)
				}
			}
			r.sameFiles(filepath.Join(dir, "cold"), out)
		}

		if i == 1 && tr != nil {
			st := eng.Stats()
			l := r.layers
			for _, e := range exps {
				if multiNode[e.ID] {
					l["figures.multinode_s"] += cold.secs[e.ID]
				} else {
					l["figures.node_s"] += cold.secs[e.ID]
				}
			}
			campaignLayers(l, st)
			runnerLayers(l, runner, wall, r.cfg.nproc)
			storeLayers(l, store, warmStore)
			if _, bytes, err := ds.Usage(); err == nil {
				l["store.bytes"] = float64(bytes)
			}
			psimLayers(l, ps0, ps1, runner)
			memLayers(l, mem0, mem1)
		}
		return nil
	})
}

// checkArtifacts compares every CSV a cold pass wrote with its reference.
// Each reference artifact is one attempted operation; with a partial
// experiment list (the self-test) only the artifacts produced are checked.
func (r *run) checkArtifacts(refDir string, refNames []string, out string, exps []figures.Experiment) {
	got, err := csvNames(out)
	if err != nil {
		r.fail("listing artifacts: %v", err)
		return
	}
	want := refNames
	if len(exps) < len(figures.All()) {
		want = got
	}
	r.attempted += len(want)
	for _, n := range want {
		if !slices.Contains(refNames, n) {
			r.fail("artifact %s has no reference", n)
			continue
		}
		if err := compareCSV(filepath.Join(refDir, n), filepath.Join(out, n)); err != nil {
			r.fail("artifact %v", err)
		}
	}
	if len(got) != len(want) {
		r.fail("cold pass wrote %d artifacts, want %d", len(got), len(want))
	}
}

// sameFiles requires two artifact directories to hold byte-identical CSVs.
func (r *run) sameFiles(a, b string) {
	names, err := csvNames(a)
	if err != nil {
		r.fail("listing artifacts: %v", err)
		return
	}
	for _, n := range names {
		x, err1 := os.ReadFile(filepath.Join(a, n))
		y, err2 := os.ReadFile(filepath.Join(b, n))
		if err1 != nil || err2 != nil || !bytes.Equal(x, y) {
			r.fail("warm: artifact %s differs from the cold pass", n)
		}
	}
}

func campaignLayers(l map[string]float64, st campaign.Stats) {
	l["campaign.jobs"] = float64(st.Jobs)
	l["campaign.memo_hits"] = float64(st.Hits)
	l["campaign.store_hits"] = float64(st.StoreHits)
	l["campaign.fresh_sims"] = float64(st.Misses)
	l["campaign.coalesced"] = float64(st.Coalesced)
}

func runnerLayers(l map[string]float64, rn *timedRunner, wall float64, workers int) {
	ms := rn.runMs.values()
	busy := sum(ms) / 1e3
	l["spec.runs"] = float64(len(ms))
	l["spec.busy_s"] = busy
	l["spec.run_ms_p50"] = pct(ms, 50)
	l["spec.run_ms_p99"] = pct(ms, 99)
	l["spec.run_ms_max"] = pct(ms, 100)
	l["spec.pool_util"] = ratio(busy, wall*float64(workers))
}

// storeLayers reports the store layer over the cold pass and, on paper,
// the first warm pass that reads back what it wrote.
func storeLayers(l map[string]float64, stores ...*timedStore) {
	var gets, hits, puts int
	var getMs, putMs []float64
	for _, s := range stores {
		if s == nil {
			continue
		}
		gets, hits, puts = gets+s.gets, hits+s.hits, puts+s.puts
		getMs = append(getMs, s.getMs.values()...)
		putMs = append(putMs, s.putMs.values()...)
	}
	l["store.gets"] = float64(gets)
	l["store.get_ms_p50"] = pct(getMs, 50)
	l["store.get_ms_p99"] = pct(getMs, 99)
	l["store.puts"] = float64(puts)
	l["store.put_ms_p50"] = pct(putMs, 50)
	l["store.put_ms_p99"] = pct(putMs, 99)
	l["store.hit_ratio"] = ratio(float64(hits), float64(gets))
}

func psimLayers(l map[string]float64, before, after psim.Totals, rn *timedRunner) {
	l["psim.runs"] = float64(after.Runs - before.Runs)
	l["psim.windows"] = float64(after.Windows - before.Windows)
	l["psim.adaptive_windows"] = float64(after.AdaptiveWindows - before.AdaptiveWindows)
	l["psim.mail"] = float64(after.Mail - before.Mail)
	idle := after.IdleParts - before.IdleParts
	l["psim.idle_parts"] = float64(idle)
	l["psim.idle_frac"] = ratio(float64(idle), float64(rn.partWindows))
}

func memLayers(l map[string]float64, before, after memCounters) {
	l["go.allocs"] = after.allocs - before.allocs
	l["go.alloc_mb"] = (after.bytes - before.bytes) / (1 << 20)
	l["go.gc_cycles"] = after.gcs - before.gcs
}
