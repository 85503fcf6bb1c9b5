// Command spechpc runs a simulated SPEChpc 2021 benchmark on one of the
// registered clusters and reports SPEC-style verified results: runtime,
// performance, bandwidth, power, energy, and the MPI share. A
// comma-separated -ranks list runs a scaling sweep on the campaign
// worker pool instead of a single job; -clock pins the core clock to a
// point of the cluster's DVFS ladder, and -clock-sweep fans the job
// across clock points instead ("ladder" selects the full ladder).
//
// With -scenario it executes a declarative scenario file (see
// docs/SCENARIOS.md) through the generic planner; with -cache-dir,
// results persist in a content-addressed on-disk store shared across
// processes and commands (figures reads the same store).
//
// Usage:
//
//	spechpc -list
//	spechpc -clusters
//	spechpc -bench tealeaf -cluster A -ranks 72 [-class tiny] [-steps 8] [-trace]
//	spechpc -bench tealeaf -cluster A -ranks 1,2,4,9,18 -parallel 8
//	spechpc -bench pot3d -cluster A -ranks 18 -clock 1.6
//	spechpc -bench pot3d -cluster A -ranks 18 -clock-sweep ladder
//	spechpc -scenario examples/custom_scenario/scenario.json -out out
//	spechpc -bench lbm -cluster A -ranks 72 -cache-dir ~/.cache/spechpc-sim
//	spechpc -bench lbm -cluster A -ranks 72 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/profiling"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/trace"
	"github.com/spechpc/spechpc-sim/internal/units"
)

func main() {
	list := flag.Bool("list", false, "list benchmarks and exit")
	listClusters := flag.Bool("clusters", false, "list registered clusters and exit")
	name := flag.String("bench", "", "benchmark name (see -list)")
	clusterFlag := flag.String("cluster", "A", "registered cluster name (see -clusters; A and B are aliases)")
	ranks := flag.String("ranks", "", "MPI ranks; a comma-separated list runs a sweep (default: one ccNUMA domain)")
	classFlag := flag.String("class", "tiny", "workload class: tiny or small")
	steps := flag.Int("steps", 0, "simulated steps (0 = kernel default)")
	doTrace := flag.Bool("trace", false, "print the per-state time breakdown")
	parallel := flag.Int("parallel", runtime.NumCPU(), "campaign worker pool size (drives sweeps)")
	clock := flag.Float64("clock", 0, "core clock in GHz (0 = the cluster's pinned base clock)")
	clockSweep := flag.String("clock-sweep", "",
		"frequency sweep: comma-separated GHz list, or \"ladder\" for the full DVFS ladder")
	scenarioFile := flag.String("scenario", "", "execute a scenario file through the generic planner")
	outDir := flag.String("out", "", "directory for scenario CSV artifacts (empty = none)")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (cross-process cache)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	verbose := flag.Bool("v", false, "print parallel-engine window statistics to stderr")
	flag.Parse()

	stop, err := profiling.StartWith(profiling.Options{
		CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile,
	})
	if err != nil {
		fatal(err)
	}
	stopProfiling = stop
	defer stop()

	if *listClusters {
		fmt.Println("registered clusters:", strings.Join(machine.Names(), ", "))
		return
	}

	if *list {
		t := report.NewTable("SPEChpc 2021 benchmarks (simulated)",
			"ID", "Name", "Language", "LOC", "Collective", "Memory-bound", "Numerics")
		for _, b := range bench.All() {
			mb := ""
			if b.MemoryBound {
				mb = "yes"
			}
			t.AddRow(fmt.Sprintf("%02d", b.ID), b.Name, b.Language,
				fmt.Sprintf("%d", b.LOC), b.Collective, mb, b.Numerics)
		}
		if err := t.Write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *scenarioFile != "" {
		sc, err := scenario.LoadFile(*scenarioFile)
		if err != nil {
			fatal(err)
		}
		engine := newEngine(*parallel, *cacheDir)
		p := &scenario.Planner{Engine: engine}
		if err := p.Execute(sc, os.Stdout, *outDir); err != nil {
			fatal(err)
		}
		reportStats(engine, *cacheDir, *verbose)
		return
	}
	if *name == "" {
		fatal(fmt.Errorf("missing -bench (try -list)"))
	}

	cluster, err := machine.Get(*clusterFlag)
	if err != nil {
		fatal(err)
	}
	if *clock < 0 {
		fatal(fmt.Errorf("invalid -clock %g (want positive GHz, 0 = base clock)", *clock))
	}
	class, err := bench.ParseClass(*classFlag)
	if err != nil {
		fatal(err)
	}
	points, err := parseRanks(*ranks, cluster.CPU.CoresPerDomain())
	if err != nil {
		fatal(err)
	}

	engine := newEngine(*parallel, *cacheDir)
	defer reportStats(engine, *cacheDir, *verbose)
	base := spec.RunSpec{
		Benchmark: *name,
		Class:     class,
		Cluster:   cluster,
		ClockHz:   *clock * 1e9,
		Options:   bench.Options{SimSteps: *steps},
	}
	if *clockSweep != "" {
		if len(points) > 1 {
			fatal(fmt.Errorf("-clock-sweep needs a single -ranks value, got %d", len(points)))
		}
		if *clock != 0 {
			fatal(fmt.Errorf("-clock and -clock-sweep are mutually exclusive"))
		}
		clocks, err := parseClocks(*clockSweep)
		if err != nil {
			fatal(err)
		}
		base.Ranks = points[0]
		base.ClockHz = 0
		if *doTrace {
			fmt.Fprintln(os.Stderr, "spechpc: -trace applies to single runs only; ignored for sweeps")
		}
		if err := runClockSweep(engine, base, clocks); err != nil {
			fatal(err)
		}
		return
	}
	if len(points) > 1 {
		if *doTrace {
			fmt.Fprintln(os.Stderr, "spechpc: -trace applies to single runs only; ignored for sweeps")
		}
		if err := runSweep(engine, base, points); err != nil {
			fatal(err)
		}
		return
	}

	base.Ranks = points[0]
	outs := engine.Run([]spec.RunSpec{base})
	if outs[0].Err != nil {
		fatal(outs[0].Err)
	}
	res := outs[0].Result

	u := res.Usage
	t := report.NewTable(
		fmt.Sprintf("%s / %s on %s, %d ranks (%d nodes)",
			*name, class, cluster.Name, u.Ranks, u.Nodes),
		"metric", "value")
	t.AddRow("verified", "yes (all checks passed)")
	t.AddRow("wall time (full workload)", units.Seconds(u.Wall))
	t.AddRow("performance", units.FlopRate(u.PerfFlops()))
	t.AddRow("AVX-DP performance", units.FlopRate(u.PerfFlopsSIMD()))
	t.AddRow("vectorization ratio", fmt.Sprintf("%.1f%%", 100*u.SIMDRatio()))
	t.AddRow("memory bandwidth", units.Bandwidth(u.MemBandwidth()))
	t.AddRow("memory data volume", units.BytesDecimal(u.BytesMem))
	t.AddRow("chip power", units.Power(u.ChipPower()))
	t.AddRow("DRAM power", units.Power(u.DRAMPower()))
	t.AddRow("total energy", units.Energy(u.TotalEnergy()))
	t.AddRow("energy-delay product", fmt.Sprintf("%.3g Js", u.EDP()))
	t.AddRow("MPI time share", fmt.Sprintf("%.1f%%", 100*u.MPIFraction()))
	for _, c := range res.Report.Checks {
		t.AddRow("check: "+c.Name, fmt.Sprintf("%.3g (ok)", c.Value))
	}
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}

	if *doTrace {
		tt := report.NewTable("Global time shares by state", "state", "share %")
		for _, k := range trace.Kinds() {
			f := res.Trace.GlobalFraction(k)
			if f > 0.0005 {
				tt.AddRow(k.String(), fmt.Sprintf("%.1f", 100*f))
			}
		}
		if err := tt.Write(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// parseRanks turns the -ranks flag into sweep points. Empty — or a
// single value <= 0, the historical int-flag default — selects one
// ccNUMA domain; list entries must be positive.
func parseRanks(s string, domainDefault int) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return []int{domainDefault}, nil
	}
	if n, err := strconv.Atoi(s); err == nil && n <= 0 {
		return []int{domainDefault}, nil
	}
	var points []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid -ranks value %q (want positive integers)", tok)
		}
		points = append(points, n)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("empty -ranks list")
	}
	return points, nil
}

// parseClocks turns the -clock-sweep flag into Hz points: either the
// literal "ladder" (the cluster's full DVFS ladder, resolved by
// campaign.FrequencySweep) or a comma-separated list of GHz values.
func parseClocks(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if strings.EqualFold(s, "ladder") {
		return nil, nil // FrequencySweep expands nil to the full ladder
	}
	var clocks []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		ghz, err := strconv.ParseFloat(tok, 64)
		if err != nil || ghz <= 0 {
			return nil, fmt.Errorf("invalid -clock-sweep value %q (want positive GHz)", tok)
		}
		clocks = append(clocks, ghz*1e9)
	}
	if len(clocks) == 0 {
		return nil, fmt.Errorf("empty -clock-sweep list")
	}
	return clocks, nil
}

// runClockSweep executes a frequency sweep on the campaign pool and
// prints one summary row per clock point.
func runClockSweep(engine *campaign.Engine, base spec.RunSpec, clocks []float64) error {
	results, err := engine.FrequencySweep(base, clocks)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("%s / %s on %s, %d ranks: %d-point frequency sweep",
			base.Benchmark, base.Class, base.Cluster.Name, base.Ranks, len(results)),
		"clock", "wall", "perf", "chip power", "energy", "J/Gflop", "EDP Js")
	for i, p := range analysis.ClockPoints(results) {
		u := results[i].Usage
		t.AddRow(
			units.Frequency(p.ClockHz),
			units.Seconds(p.Wall),
			units.FlopRate(u.PerfFlops()),
			units.Power(u.ChipPower()),
			units.Energy(p.Energy),
			fmt.Sprintf("%.2f", p.EnergyPerFlop*1e9),
			fmt.Sprintf("%.3g", p.EDP))
	}
	return t.Write(os.Stdout)
}

// runSweep executes a rank sweep on the campaign pool and prints one
// summary row per point.
func runSweep(engine *campaign.Engine, base spec.RunSpec, points []int) error {
	results, err := engine.Sweep(base, points)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("%s / %s on %s: %d-point sweep",
			base.Benchmark, base.Class, base.Cluster.Name, len(points)),
		"ranks", "nodes", "wall", "perf", "mem BW", "chip power", "energy", "MPI %")
	for _, r := range results {
		u := r.Usage
		t.AddRow(
			fmt.Sprintf("%d", u.Ranks),
			fmt.Sprintf("%d", u.Nodes),
			units.Seconds(u.Wall),
			units.FlopRate(u.PerfFlops()),
			units.Bandwidth(u.MemBandwidth()),
			units.Power(u.ChipPower()),
			units.Energy(u.TotalEnergy()),
			fmt.Sprintf("%.1f", 100*u.MPIFraction()))
	}
	return t.Write(os.Stdout)
}

// newEngine builds the campaign engine, attaching the persistent store
// when -cache-dir is set.
func newEngine(workers int, cacheDir string) *campaign.Engine {
	engine, err := campaign.NewWithCacheDir(workers, cacheDir)
	if err != nil {
		fatal(err)
	}
	return engine
}

// reportStats prints the campaign cache counters to stderr when a
// persistent store is in play, and — under -v — the parallel engine's
// window accounting.
func reportStats(engine *campaign.Engine, cacheDir string, verbose bool) {
	if cacheDir != "" {
		fmt.Fprintln(os.Stderr, engine.Stats())
	}
	if !verbose {
		return
	}
	pt := psim.Snapshot()
	if pt.Runs == 0 {
		fmt.Fprintln(os.Stderr, "psim: no partitioned runs (serial engine only)")
		return
	}
	fmt.Fprintf(os.Stderr,
		"psim: %d runs, %d windows (%d widened), %d mail merged, %d idle partition-windows, window span %.3gs..%.3gs\n",
		pt.Runs, pt.Windows, pt.AdaptiveWindows,
		pt.Mail, pt.IdleParts, pt.Narrowest, pt.Widest)
}

// stopProfiling flushes any active profiles; fatal exits skip deferred
// calls, so it is invoked explicitly there (it is idempotent).
var stopProfiling = func() {}

func fatal(err error) {
	stopProfiling()
	fmt.Fprintln(os.Stderr, "spechpc:", err)
	os.Exit(1)
}
