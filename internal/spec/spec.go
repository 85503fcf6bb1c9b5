// Package spec is the SPEChpc-like harness: it runs registered benchmark
// kernels on simulated clusters, verifies their validation checks (as
// SPEC's tooling verifies results), extrapolates the simulated iteration
// subset to the full Table 1 workload, and produces the sweep series the
// paper's figures are built from.
package spec

import (
	"fmt"
	"sort"
	"sync"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// RunSpec describes one benchmark execution.
type RunSpec struct {
	// Benchmark is the registered kernel name (e.g. "lbm").
	Benchmark string
	// Class selects the tiny or small workload.
	Class bench.Class
	// Cluster is the machine to run on.
	Cluster *machine.ClusterSpec
	// Ranks is the MPI process count.
	Ranks int
	// ClockHz overrides the core clock: the run executes on
	// Cluster.WithClock(ClockHz), scaling in-core peaks and dynamic
	// power per the cluster's DVFS model. Zero runs at the pinned
	// BaseClockHz. Distinct clocks memoize independently in campaigns.
	ClockHz float64
	// Options tunes simulated steps / real-array scaling (zero = kernel
	// defaults).
	Options bench.Options
	// KeepTrace records the full per-rank event timeline (costly for
	// large jobs; per-kind sums are always recorded).
	KeepTrace bool
	// Net overrides the interconnect (zero value = HDR100).
	Net netsim.Spec
	// SimWorkers > 1 executes a multi-node job on the conservative-
	// lookahead parallel engine with that many concurrent partition
	// executors (internal/sim/psim). Results are byte-identical at
	// every worker count, so the field selects wall-clock strategy, not
	// simulation semantics — campaign job keys deliberately exclude it.
	SimWorkers int
}

// RunResult is the outcome of one verified benchmark execution.
type RunResult struct {
	Spec RunSpec
	// Usage is extrapolated to the full workload step count; RawUsage is
	// the simulated subset as measured.
	Usage    machine.Usage
	RawUsage machine.Usage
	// Report carries validation checks and step accounting from rank 0.
	Report bench.RunReport
	// Trace is the recorder (always non-nil).
	Trace *trace.Recorder
}

// Run executes and verifies one benchmark.
func Run(rs RunSpec) (RunResult, error) {
	b, err := bench.Get(rs.Benchmark)
	if err != nil {
		return RunResult{}, err
	}
	if rs.Cluster == nil {
		return RunResult{}, fmt.Errorf("spec: run without cluster")
	}
	if rs.Ranks <= 0 {
		return RunResult{}, fmt.Errorf("spec: non-positive rank count")
	}
	cluster := rs.Cluster
	if rs.ClockHz > 0 {
		// Memoized: a frequency sweep derives and validates each ladder
		// point once per process, however many jobs run at it.
		cluster, err = cluster.WithClockCached(rs.ClockHz)
		if err != nil {
			return RunResult{}, fmt.Errorf("spec: %s/%s: %w", rs.Benchmark, rs.Class, err)
		}
		// Report the clock the simulation actually ran at: WithClock
		// snaps the request onto the DVFS ladder.
		rs.ClockHz = cluster.CPU.BaseClockHz
	}
	rec := trace.NewRecorder(rs.Ranks, rs.KeepTrace)
	// Rank bodies run on distinct (serially interleaved) goroutines, so
	// the first-error and rank-0-report capture is guarded by a mutex to
	// stay race-clean under `go test -race` and parallel campaign runs.
	var mu sync.Mutex
	var rep bench.RunReport
	var runErr error
	res, err := mpi.Run(mpi.Config{
		Cluster:    cluster,
		Ranks:      rs.Ranks,
		Trace:      rec,
		Net:        rs.Net,
		SimWorkers: rs.SimWorkers,
	}, func(r *mpi.Rank) {
		rr, err := b.Run(r, rs.Class, rs.Options)
		mu.Lock()
		if err != nil && runErr == nil {
			runErr = err
		}
		if r.ID() == 0 {
			rep = rr
		}
		mu.Unlock()
	})
	if err != nil {
		return RunResult{}, fmt.Errorf("spec: %s/%s on %s with %d ranks: %w",
			rs.Benchmark, rs.Class, rs.Cluster.Name, rs.Ranks, err)
	}
	if runErr != nil {
		return RunResult{}, runErr
	}
	if !rep.Valid() {
		return RunResult{}, fmt.Errorf("spec: %s/%s verification FAILED: %+v",
			rs.Benchmark, rs.Class, rep.Checks)
	}
	return RunResult{
		Spec:     rs,
		Usage:    res.Usage.Scale(rep.RepFactor()),
		RawUsage: res.Usage,
		Report:   rep,
		Trace:    rec,
	}, nil
}

// NodePoints returns the rank counts used for node-level sweeps on a
// cluster: every core count from 1 up to a full node would be expensive,
// so the sweep uses 1, 2, 4, then steps of one third of a ccNUMA domain
// (18-core domains advance by 6, 13-core domains by 4), plus every
// domain multiple, hitting every domain and socket boundary exactly —
// enough resolution for the saturation curves of Fig. 1-4. The exact
// point sets for the paper's two clusters are pinned by
// TestNodePointsPaperClusters; on-disk campaign caches key on rank
// counts, so changing this ladder invalidates warm sweeps.
func NodePoints(cs *machine.ClusterSpec) []int {
	cpd := cs.CPU.CoresPerDomain()
	cpn := cs.CPU.CoresPerNode()
	set := map[int]bool{1: true}
	for _, seed := range []int{2, 4} {
		if seed <= cpn {
			set[seed] = true
		}
	}
	step := cpd / 3
	if step < 1 {
		step = 1
	}
	for p := step; p <= cpn; p += step {
		set[p] = true
	}
	for d := 1; d*cpd <= cpn; d++ {
		set[d*cpd] = true
	}
	points := make([]int, 0, len(set))
	for p := range set {
		points = append(points, p)
	}
	sort.Ints(points)
	return points
}

// DomainPoints returns 1..cores-per-domain, the x axis of the
// power-vs-speedup plots (Fig. 3a/3c).
func DomainPoints(cs *machine.ClusterSpec) []int {
	cpd := cs.CPU.CoresPerDomain()
	points := make([]int, 0, cpd)
	for p := 1; p <= cpd; p++ {
		points = append(points, p)
	}
	return points
}

// MultiNodePoints returns full-node rank counts 1,2,4,8,...,MaxNodes plus
// the largest even node counts, the x axis of Fig. 5-6.
func MultiNodePoints(cs *machine.ClusterSpec) []int {
	cpn := cs.CPU.CoresPerNode()
	var points []int
	for nodes := 1; nodes <= cs.MaxNodes; nodes *= 2 {
		points = append(points, nodes*cpn)
	}
	last := points[len(points)-1]
	if full := cs.MaxNodes * cpn; full > last {
		points = append(points, full)
	}
	return points
}

// Sweep runs one benchmark over a list of rank counts serially and
// returns results in order. Options apply to every point. It is the
// uncached serial reference; sweeps that should parallelize across host
// cores and memoize repeated jobs go through internal/campaign instead.
func Sweep(base RunSpec, points []int) ([]RunResult, error) {
	out := make([]RunResult, 0, len(points))
	for _, p := range points {
		rs := base
		rs.Ranks = p
		r, err := Run(rs)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
