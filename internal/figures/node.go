package figures

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// memoryBound / nonMemoryBound split the suite as the paper's Fig. 1 does.
func splitByMemoryBound() (memBound, nonMemBound []string) {
	for _, b := range bench.All() {
		if b.MemoryBound {
			memBound = append(memBound, b.Name)
		} else {
			nonMemBound = append(nonMemBound, b.Name)
		}
	}
	return memBound, nonMemBound
}

// nodeSweepAll runs the tiny-suite node sweep for every benchmark on one
// cluster as a single parallel campaign batch.
func (ctx *Context) nodeSweepAll(cs *machine.ClusterSpec) (map[string][]spec.RunResult, error) {
	out, err := ctx.sweepAll(cs, bench.Tiny, ctx.nodePoints(cs))
	if err != nil {
		return nil, fmt.Errorf("node sweep on %s: %w", cs.Name, err)
	}
	return out, nil
}

// Fig1 runs the Fig. 1 experiment: warm the scenario plan on the
// campaign engine, then render.
func Fig1(ctx *Context) error { return ctx.runPlan(fig1Scenario, renderFig1) }

// renderFig1 renders node-level speedup and total-vs-AVX performance for
// both clusters (Fig. 1a-f).
func renderFig1(ctx *Context) error {
	clusters, err := ctx.planner().Clusters(ctx.Clusters)
	if err != nil {
		return err
	}
	for _, cs := range clusters {
		sweeps, err := ctx.nodeSweepAll(cs)
		if err != nil {
			return err
		}
		// (a, d): speedup for all nine codes.
		spPlot := report.NewPlot(
			fmt.Sprintf("Fig.1 %s speedup vs MPI processes (tiny)", cs.Name),
			"processes", "speedup")
		var spSeries []report.Series
		for _, name := range bench.Names() {
			pts := analysis.Points(sweeps[name])
			sp := analysis.Speedup(pts)
			xs := make([]float64, len(pts))
			for i, p := range pts {
				xs[i] = p.Ranks
			}
			spPlot.Add(name, xs, sp)
			spSeries = append(spSeries, report.Series{Name: name, X: xs, Y: sp})
		}
		if err := spPlot.Write(ctx.out()); err != nil {
			return err
		}
		if err := report.SaveSeriesCSV(ctx.OutDir, fmt.Sprintf("fig1_speedup_%s.csv", cs.Name), "ranks", spSeries); err != nil {
			return err
		}
		// (b-c, e-f): DP vs AVX-DP performance, split by memory-boundness.
		memB, nonMemB := splitByMemoryBound()
		for _, group := range []struct {
			tag   string
			names []string
		}{{"nonmem", nonMemB}, {"mem", memB}} {
			perfPlot := report.NewPlot(
				fmt.Sprintf("Fig.1 %s DP vs AVX-DP performance (%s-bound codes)", cs.Name, group.tag),
				"processes", "Mflop/s")
			var series []report.Series
			for _, name := range group.names {
				pts := analysis.Points(sweeps[name])
				xs := make([]float64, len(pts))
				dp := make([]float64, len(pts))
				avx := make([]float64, len(pts))
				for i, p := range pts {
					xs[i] = p.Ranks
					dp[i] = p.Perf / 1e6
					avx[i] = p.PerfSIMD / 1e6
				}
				perfPlot.Add("DP-"+name, xs, dp)
				perfPlot.Add("AVX-"+name, xs, avx)
				series = append(series,
					report.Series{Name: "DP-" + name, X: xs, Y: dp},
					report.Series{Name: "AVX-DP-" + name, X: xs, Y: avx})
			}
			if err := perfPlot.Write(ctx.out()); err != nil {
				return err
			}
			if err := report.SaveSeriesCSV(ctx.OutDir,
				fmt.Sprintf("fig1_perf_%s_%s.csv", group.tag, cs.Name), "ranks", series); err != nil {
				return err
			}
		}
	}
	return nil
}

// TextEfficiency runs the parallel-efficiency experiment.
func TextEfficiency(ctx *Context) error {
	return ctx.runPlan(nodeSweepScenario, renderTextEfficiency)
}

// renderTextEfficiency reproduces the Sect. 4.1.1 parallel-efficiency
// table (ccNUMA-domain baseline, percent).
func renderTextEfficiency(ctx *Context) error {
	t := report.NewTable("Sect. 4.1.1: parallel efficiency %, domain baseline",
		append([]string{"Cluster"}, bench.Names()...)...)
	clusters, err := ctx.planner().Clusters(ctx.Clusters)
	if err != nil {
		return err
	}
	for _, cs := range clusters {
		sweeps, err := ctx.nodeSweepAll(cs)
		if err != nil {
			return err
		}
		cells := []string{cs.Name}
		for _, name := range bench.Names() {
			pts := analysis.Points(sweeps[name])
			eff, err := analysis.DomainEfficiency(pts,
				cs.CPU.CoresPerDomain(), cs.CPU.CoresPerNode())
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%.0f", eff))
		}
		t.AddRow(cells...)
	}
	if err := t.Write(ctx.out()); err != nil {
		return err
	}
	return report.SaveCSV(ctx.OutDir, "text_efficiency.csv", t)
}

// TextAcceleration runs the acceleration-factor experiment.
func TextAcceleration(ctx *Context) error {
	return ctx.runPlan(nodeSweepScenario, renderTextAcceleration)
}

// renderTextAcceleration reproduces the Sect. 4.1.2 node acceleration
// factors: each cluster's full-node wall time relative to the first
// (baseline) cluster of the context — ClusterB over ClusterA in the
// paper setup.
func renderTextAcceleration(ctx *Context) error {
	clusters, err := ctx.planner().Clusters(ctx.Clusters)
	if err != nil {
		return err
	}
	if len(clusters) < 2 {
		// A single-cluster study has no cross-machine factor to report;
		// skip rather than abort the remaining experiments.
		_, err := fmt.Fprintf(ctx.out(),
			"Sect. 4.1.2 acceleration factors skipped: need >= 2 clusters, have %d\n",
			len(clusters))
		return err
	}
	base := clusters[0]
	sweepsBase, err := ctx.nodeSweepAll(base)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Sect. 4.1.2: node acceleration factor over %s", base.Name),
		append([]string{""}, bench.Names()...)...)
	for _, cs := range clusters[1:] {
		sweeps, err := ctx.nodeSweepAll(cs)
		if err != nil {
			return err
		}
		cells := []string{fmt.Sprintf("%s over %s", cs.Name, base.Name)}
		for _, name := range bench.Names() {
			lastBase := sweepsBase[name][len(sweepsBase[name])-1].Usage
			last := sweeps[name][len(sweeps[name])-1].Usage
			cells = append(cells, fmt.Sprintf("%.2f",
				analysis.AccelerationFactor(lastBase.Wall, last.Wall)))
		}
		t.AddRow(cells...)
	}
	if err := t.Write(ctx.out()); err != nil {
		return err
	}
	return report.SaveCSV(ctx.OutDir, "text_acceleration.csv", t)
}

// TextSIMD runs the vectorization-ratio experiment.
func TextSIMD(ctx *Context) error { return ctx.runPlan(simdScenario, renderTextSIMD) }

// renderTextSIMD reproduces the Sect. 4.1.3 vectorization-ratio table
// (the paper measures it on the Ice Lake system).
func renderTextSIMD(ctx *Context) error {
	a, err := machine.Get("ClusterA")
	if err != nil {
		return err
	}
	t := report.NewTable("Sect. 4.1.3: vectorization percentage (paper target in parentheses)",
		append([]string{""}, bench.Names()...)...)
	cells := []string{"measured"}
	for _, name := range bench.Names() {
		res, err := ctx.sweep(a, name, bench.Tiny, []int{4})
		if err != nil {
			return err
		}
		b, _ := bench.Get(name)
		cells = append(cells, fmt.Sprintf("%.1f (%.1f)",
			100*res[0].Usage.SIMDRatio(), b.VectorPct))
	}
	t.AddRow(cells...)
	if err := t.Write(ctx.out()); err != nil {
		return err
	}
	return report.SaveCSV(ctx.OutDir, "text_simd.csv", t)
}

// Fig2 runs the Fig. 2 experiment.
func Fig2(ctx *Context) error { return ctx.runPlan(fig2Scenario, renderFig2) }

// renderFig2 renders node bandwidth/volume behaviour plus the two
// ITAC-style insets (minisweep serialization at 59 ranks, lbm straggler
// at 71).
func renderFig2(ctx *Context) error {
	clusters, err := ctx.planner().Clusters(ctx.Clusters)
	if err != nil {
		return err
	}
	for _, cs := range clusters {
		sweeps, err := ctx.nodeSweepAll(cs)
		if err != nil {
			return err
		}
		type metric struct {
			tag  string
			name string
			get  func(analysis.Point) float64
		}
		metrics := []metric{
			{"membw", "memory bandwidth [GB/s]", func(p analysis.Point) float64 { return p.MemBW / 1e9 }},
			{"memvol", "memory data volume [GB]", func(p analysis.Point) float64 { return p.BytesMem / 1e9 }},
		}
		for _, m := range metrics {
			plot := report.NewPlot(
				fmt.Sprintf("Fig.2 %s %s (tiny)", cs.Name, m.name), "processes", m.name)
			var series []report.Series
			for _, name := range bench.Names() {
				pts := analysis.Points(sweeps[name])
				xs := make([]float64, len(pts))
				ys := make([]float64, len(pts))
				for i, p := range pts {
					xs[i] = p.Ranks
					ys[i] = m.get(p)
				}
				plot.Add(name, xs, ys)
				series = append(series, report.Series{Name: name, X: xs, Y: ys})
			}
			if err := plot.Write(ctx.out()); err != nil {
				return err
			}
			if err := report.SaveSeriesCSV(ctx.OutDir,
				fmt.Sprintf("fig2_%s_%s.csv", m.tag, cs.Name), "ranks", series); err != nil {
				return err
			}
		}
	}
	// (c, d) L3/L2 bandwidth for the codes the paper highlights.
	a, err := machine.Get("ClusterA")
	if err != nil {
		return err
	}
	cachePlot := report.NewPlot("Fig.2 cache bandwidths on ClusterA (lbm, minisweep, pot3d)",
		"processes", "GB/s")
	sweepsA, err := ctx.nodeSweepAll(a)
	if err != nil {
		return err
	}
	var cacheSeries []report.Series
	for _, name := range []string{"lbm", "minisweep", "pot3d"} {
		pts := sweepsA[name]
		xs := make([]float64, len(pts))
		l3 := make([]float64, len(pts))
		l2 := make([]float64, len(pts))
		for i, r := range pts {
			xs[i] = float64(r.Usage.Ranks)
			l3[i] = r.Usage.L3Bandwidth() / 1e9
			l2[i] = r.Usage.L2Bandwidth() / 1e9
		}
		cachePlot.Add("L3-"+name, xs, l3)
		cachePlot.Add("L2-"+name, xs, l2)
		cacheSeries = append(cacheSeries,
			report.Series{Name: "L3-" + name, X: xs, Y: l3},
			report.Series{Name: "L2-" + name, X: xs, Y: l2})
	}
	if err := cachePlot.Write(ctx.out()); err != nil {
		return err
	}
	if err := report.SaveSeriesCSV(ctx.OutDir, "fig2_cachebw_ClusterA.csv", "ranks", cacheSeries); err != nil {
		return err
	}
	return fig2Insets(ctx)
}

// fig2Insets reproduces the two process timelines: minisweep at 59
// processes (MPI_Recv-dominated serialization) and lbm at 71 (one slow
// straggler rank).
func fig2Insets(ctx *Context) error {
	a, err := machine.Get("ClusterA")
	if err != nil {
		return err
	}
	// minisweep at 59 ranks.
	ms, err := ctx.run(spec.RunSpec{
		Benchmark: "minisweep", Class: bench.Tiny, Cluster: a, Ranks: 59,
		Options: bench.Options{SimSteps: 1},
	})
	if err != nil {
		return err
	}
	t := report.NewTable("Fig.2(g) inset: minisweep at 59 processes, global time shares",
		"state", "share %")
	for _, k := range []trace.Kind{trace.KindCompute, trace.KindRecv, trace.KindSend} {
		t.AddRow(k.String(), fmt.Sprintf("%.1f", 100*ms.Trace.GlobalFraction(k)))
	}
	if err := t.Write(ctx.out()); err != nil {
		return err
	}
	if err := report.SaveCSV(ctx.OutDir, "fig2_inset_minisweep59.csv", t); err != nil {
		return err
	}
	// lbm at 71 ranks: per-rank compute time identifies the straggler.
	lb, err := ctx.run(spec.RunSpec{
		Benchmark: "lbm", Class: bench.Tiny, Cluster: a, Ranks: 71,
		Options: bench.Options{SimSteps: 2},
	})
	if err != nil {
		return err
	}
	slowest := lb.Trace.SlowestRank()
	t2 := report.NewTable("Fig.2(h) inset: lbm at 71 processes",
		"quantity", "value")
	t2.AddRow("straggler rank (paper: 70)", fmt.Sprintf("%d", slowest))
	t2.AddRow("straggler compute time share vs median",
		fmt.Sprintf("%.2fx", stragglerRatio(lb.Trace)))
	t2.AddRow("global MPI_Barrier share %",
		fmt.Sprintf("%.1f", 100*lb.Trace.GlobalFraction(trace.KindBarrier)))
	if err := t2.Write(ctx.out()); err != nil {
		return err
	}
	return report.SaveCSV(ctx.OutDir, "fig2_inset_lbm71.csv", t2)
}

// stragglerRatio returns the slowest rank's compute time over the median
// rank's compute time.
func stragglerRatio(rec *trace.Recorder) float64 {
	n := rec.Ranks()
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		times[i] = rec.Sum(i, trace.KindCompute)
	}
	slow := times[rec.SlowestRank()]
	// Median by simple selection.
	sorted := append([]float64(nil), times...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	med := sorted[n/2]
	if med == 0 {
		return 0
	}
	return slow / med
}

// Fig3 runs the Fig. 3 experiment.
func Fig3(ctx *Context) error { return ctx.runPlan(domainAndNodeScenario, renderFig3) }

// renderFig3 renders chip/DRAM power vs speedup on one ccNUMA domain
// (a, c) and node-level power vs processes (b, d), including the
// zero-core baseline extrapolation.
func renderFig3(ctx *Context) error {
	clusters, err := ctx.planner().Clusters(ctx.Clusters)
	if err != nil {
		return err
	}
	for _, cs := range clusters {
		domPts := ctx.domainPoints(cs)
		domSweeps, err := ctx.sweepAll(cs, bench.Tiny, domPts)
		if err != nil {
			return err
		}
		chipPlot := report.NewPlot(
			fmt.Sprintf("Fig.3 %s chip power vs speedup (one ccNUMA domain)", cs.Name),
			"speedup", "W")
		dramPlot := report.NewPlot(
			fmt.Sprintf("Fig.3 %s DRAM power vs speedup (one ccNUMA domain)", cs.Name),
			"speedup", "W")
		baseTable := report.NewTable(
			fmt.Sprintf("Fig.3 %s zero-core baseline extrapolation (paper: %s ~%.0f W)",
				cs.Name, cs.Name, cs.CPU.BasePowerPerSocket),
			"benchmark", "extrapolated baseline W")
		var chipSeries, dramSeries []report.Series
		for _, name := range bench.Names() {
			res := domSweeps[name]
			pts := analysis.Points(res)
			sp := analysis.Speedup(pts)
			chip := make([]float64, len(res))
			dram := make([]float64, len(res))
			cores := make([]float64, len(res))
			for i, r := range res {
				chip[i] = r.Usage.SocketChipPower[0]
				dram[i] = r.Usage.DomainDRAMPower[0]
				cores[i] = float64(r.Usage.Ranks)
			}
			chipPlot.Add(name, sp, chip)
			dramPlot.Add(name, sp, dram)
			chipSeries = append(chipSeries, report.Series{Name: name, X: sp, Y: chip})
			dramSeries = append(dramSeries, report.Series{Name: name, X: sp, Y: dram})
			baseTable.AddRow(name, fmt.Sprintf("%.0f",
				analysis.BaselinePowerExtrapolation(cores, chip)))
		}
		if err := chipPlot.Write(ctx.out()); err != nil {
			return err
		}
		if err := dramPlot.Write(ctx.out()); err != nil {
			return err
		}
		if err := baseTable.Write(ctx.out()); err != nil {
			return err
		}
		if err := report.SaveSeriesCSV(ctx.OutDir, fmt.Sprintf("fig3_chip_domain_%s.csv", cs.Name), "speedup", chipSeries); err != nil {
			return err
		}
		if err := report.SaveSeriesCSV(ctx.OutDir, fmt.Sprintf("fig3_dram_domain_%s.csv", cs.Name), "speedup", dramSeries); err != nil {
			return err
		}
		if err := report.SaveCSV(ctx.OutDir, fmt.Sprintf("fig3_baseline_%s.csv", cs.Name), baseTable); err != nil {
			return err
		}

		// (b, d): node-level chip power vs processes.
		sweeps, err := ctx.nodeSweepAll(cs)
		if err != nil {
			return err
		}
		nodePlot := report.NewPlot(
			fmt.Sprintf("Fig.3 %s node chip power vs processes", cs.Name),
			"processes", "W")
		var nodeSeries []report.Series
		for _, name := range bench.Names() {
			res := sweeps[name]
			xs := make([]float64, len(res))
			ys := make([]float64, len(res))
			for i, r := range res {
				xs[i] = float64(r.Usage.Ranks)
				ys[i] = r.Usage.ChipPower()
			}
			nodePlot.Add(name, xs, ys)
			nodeSeries = append(nodeSeries, report.Series{Name: name, X: xs, Y: ys})
		}
		if err := nodePlot.Write(ctx.out()); err != nil {
			return err
		}
		if err := report.SaveSeriesCSV(ctx.OutDir, fmt.Sprintf("fig3_chip_node_%s.csv", cs.Name), "ranks", nodeSeries); err != nil {
			return err
		}
	}
	return nil
}

// Fig4 runs the Fig. 4 experiment.
func Fig4(ctx *Context) error { return ctx.runPlan(domainAndNodeScenario, renderFig4) }

// renderFig4 renders the energy Z-plots (a, b) and node total energy (c).
func renderFig4(ctx *Context) error {
	clusters, err := ctx.planner().Clusters(ctx.Clusters)
	if err != nil {
		return err
	}
	for _, cs := range clusters {
		domPts := ctx.domainPoints(cs)
		domSweeps, err := ctx.sweepAll(cs, bench.Tiny, domPts)
		if err != nil {
			return err
		}
		zPlot := report.NewPlot(
			fmt.Sprintf("Fig.4 %s Z-plot: chip energy vs speedup (one domain)", cs.Name),
			"speedup", "J")
		minTable := report.NewTable(
			fmt.Sprintf("Fig.4 %s: energy and EDP minima (race-to-idle check)", cs.Name),
			"benchmark", "ranks at min E", "ranks at min EDP")
		var zSeries []report.Series
		for _, name := range bench.Names() {
			res := domSweeps[name]
			z := analysis.ZPlot(analysis.Points(res))
			xs := make([]float64, len(z))
			ys := make([]float64, len(z))
			for i, p := range z {
				xs[i] = p.Speedup
				ys[i] = p.Energy
			}
			zPlot.Add(name, xs, ys)
			zSeries = append(zSeries, report.Series{Name: name, X: xs, Y: ys})
			minTable.AddRow(name,
				fmt.Sprintf("%.0f", z[analysis.MinEnergyPoint(z)].Ranks),
				fmt.Sprintf("%.0f", z[analysis.MinEDPPoint(z)].Ranks))
		}
		if err := zPlot.Write(ctx.out()); err != nil {
			return err
		}
		if err := minTable.Write(ctx.out()); err != nil {
			return err
		}
		if err := report.SaveSeriesCSV(ctx.OutDir, fmt.Sprintf("fig4_zplot_%s.csv", cs.Name), "speedup", zSeries); err != nil {
			return err
		}
		if err := report.SaveCSV(ctx.OutDir, fmt.Sprintf("fig4_minima_%s.csv", cs.Name), minTable); err != nil {
			return err
		}

		// (c): node total energy vs processes.
		sweeps, err := ctx.nodeSweepAll(cs)
		if err != nil {
			return err
		}
		ePlot := report.NewPlot(
			fmt.Sprintf("Fig.4 %s total energy vs processes (node)", cs.Name),
			"processes", "J")
		var eSeries []report.Series
		for _, name := range bench.Names() {
			res := sweeps[name]
			xs := make([]float64, len(res))
			ys := make([]float64, len(res))
			for i, r := range res {
				xs[i] = float64(r.Usage.Ranks)
				ys[i] = r.Usage.TotalEnergy()
			}
			ePlot.Add(name, xs, ys)
			eSeries = append(eSeries, report.Series{Name: name, X: xs, Y: ys})
		}
		if err := ePlot.Write(ctx.out()); err != nil {
			return err
		}
		if err := report.SaveSeriesCSV(ctx.OutDir, fmt.Sprintf("fig4_energy_node_%s.csv", cs.Name), "ranks", eSeries); err != nil {
			return err
		}
	}
	return nil
}
