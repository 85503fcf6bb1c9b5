package hpgmgfv

import (
	"math"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

func runMG(t *testing.T, cs *machine.ClusterSpec, n, steps int) (mpi.Result, bench.RunReport, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(n, false)
	res, rep := runJob(t, mpi.Config{Cluster: cs, Ranks: n, Trace: rec}, bench.Tiny, steps)
	return res, rep, rec
}

// runJob runs one hpgmgfv job and returns rank 0's report.
func runJob(tb testing.TB, cfg mpi.Config, c bench.Class, steps int) (mpi.Result, bench.RunReport) {
	tb.Helper()
	var rep bench.RunReport
	res, err := mpi.Run(cfg, func(r *mpi.Rank) {
		rr, err := run(r, c, bench.Options{SimSteps: steps})
		if err != nil {
			tb.Error(err)
		}
		if r.ID() == 0 {
			rep = rr
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res, rep
}

func TestRegistered(t *testing.T) {
	b, err := bench.Get("hpgmgfv")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 34 || !b.MemoryBound {
		t.Fatalf("hpgmgfv metadata wrong: %+v", b)
	}
}

func TestVCycleContraction(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		_, rep, _ := runMG(t, machine.ClusterA(), n, 2)
		if !rep.Valid() {
			t.Fatalf("n=%d: %+v", n, rep.Checks)
		}
	}
}

func TestMultigridSolvesPoisson(t *testing.T) {
	// Several V-cycles must reduce the residual by orders of magnitude.
	mg := newMultigrid(16)
	r0 := mg.residualNorm()
	for i := 0; i < 8; i++ {
		mg.vCycle()
	}
	r1 := mg.residualNorm()
	if r1 > r0*1e-4 {
		t.Fatalf("residual after 8 V-cycles: %g -> %g (ratio %g), want < 1e-4", r0, r1, r1/r0)
	}
}

func TestVCycleBeatsPlainSmoothing(t *testing.T) {
	// The multigrid hierarchy must converge much faster than smoothing
	// alone — otherwise the V-cycle plumbing is broken.
	mgA := newMultigrid(16)
	mgA.vCycle()
	vres := mgA.residualNorm()

	mgB := newMultigrid(16)
	mgB.levels[0].smooth(6) // same number of fine-grid smoothing sweeps
	sres := mgB.residualNorm()
	if vres >= sres {
		t.Fatalf("V-cycle (%g) no better than plain smoothing (%g)", vres, sres)
	}
}

func TestManySmallMessagesAtCoarseLevels(t *testing.T) {
	// hpgmgfv's multi-node signature (Case C): communication overhead
	// from per-level halos. At 64 ranks, point-to-point time must be
	// visible in the trace.
	_, _, rec := runMG(t, machine.ClusterA(), 64, 2)
	p2p := rec.GlobalFraction(trace.KindSendrecv) + rec.GlobalFraction(trace.KindSend) +
		rec.GlobalFraction(trace.KindRecv) + rec.GlobalFraction(trace.KindWait)
	if p2p <= 0 {
		t.Fatal("no point-to-point time recorded for multigrid halos")
	}
}

func TestWeaklySaturating(t *testing.T) {
	// hpgmgfv saturates less sharply than pot3d: one ccNUMA domain draws
	// high but not pinned bandwidth.
	res, _, _ := runMG(t, machine.ClusterA(), 18, 2)
	bw := res.Usage.MemBandwidth() / 1e9
	if bw < 40 || bw > 77 {
		t.Fatalf("domain bandwidth = %.1f GB/s, want high but below full saturation", bw)
	}
}

func TestVectorization(t *testing.T) {
	res, _, _ := runMG(t, machine.ClusterA(), 4, 2)
	if r := res.Usage.SIMDRatio(); math.Abs(r-0.948) > 0.005 {
		t.Fatalf("SIMD ratio = %.3f, want 0.948", r)
	}
}

func TestRealSolveDoesNotGrowWithRanks(t *testing.T) {
	// Only rank 0's solve reaches a check, so a job builds exactly one
	// multigrid whatever its rank count.
	for _, n := range []int{1, 72, 1152} {
		before := multigridsBuilt.Load()
		runJob(t, mpi.Config{Cluster: machine.ClusterA(), Ranks: n}, bench.Small, 1)
		if got := multigridsBuilt.Load() - before; got != 1 {
			t.Errorf("%d ranks: built %d multigrids per job, want 1", n, got)
		}
	}
}

func TestChecksIndependentOfRanksAndEngine(t *testing.T) {
	// Check values reach store records, spechpc output and HTTP job
	// responses; they must not depend on the rank count or the engine.
	cs := machine.ClusterA()
	runs := []struct {
		name string
		cfg  mpi.Config
	}{
		{"p=1", mpi.Config{Cluster: cs, Ranks: 1}},
		{"p=8", mpi.Config{Cluster: cs, Ranks: 8}},
		{"p=144 serial", mpi.Config{Cluster: cs, Ranks: 144}},
		{"p=144 SimWorkers=4", mpi.Config{Cluster: cs, Ranks: 144, SimWorkers: 4}},
	}
	var want []bench.Check
	for i, tc := range runs {
		res, rep := runJob(t, tc.cfg, bench.Tiny, 2)
		if tc.cfg.SimWorkers > 1 && !res.Partitioned {
			t.Fatalf("%s: job did not run on the parallel engine", tc.name)
		}
		if !rep.Valid() {
			t.Fatalf("%s: checks failed: %+v", tc.name, rep.Checks)
		}
		if i == 0 {
			want = rep.Checks
			continue
		}
		if len(rep.Checks) != len(want) {
			t.Fatalf("%s: %d checks, want %d", tc.name, len(rep.Checks), len(want))
		}
		for j, c := range rep.Checks {
			if c.Name != want[j].Name || math.Float64bits(c.Value) != math.Float64bits(want[j].Value) {
				t.Errorf("%s: check %q = %v, want %q = %v (p=1)", tc.name, c.Name, c.Value, want[j].Name, want[j].Value)
			}
		}
	}
}

// BenchmarkLoneJob runs one small-class job at ClusterA's full 1,152
// ranks for one step: the kernel's cost at the largest rank count.
func BenchmarkLoneJob(b *testing.B) {
	cfg := mpi.Config{Cluster: machine.ClusterA(), Ranks: 1152}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runJob(b, cfg, bench.Small, 1)
	}
}
