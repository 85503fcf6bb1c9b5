package figures

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// multiSweepAll runs the small-suite multi-node sweep for every benchmark
// as one parallel campaign batch. The engine memoizes every point, so
// Fig5, Fig6, and the scaling-case table simulate each (benchmark,
// cluster, ranks) job at most once per process.
func (ctx *Context) multiSweepAll(cs *machine.ClusterSpec) (map[string][]spec.RunResult, error) {
	out, err := ctx.sweepAll(cs, bench.Small, ctx.multiPoints(cs))
	if err != nil {
		return nil, fmt.Errorf("multi-node sweep on %s: %w", cs.Name, err)
	}
	return out, nil
}

// Fig5 runs the Fig. 5 experiment: warm the multi-node scenario plan,
// then render.
func Fig5(ctx *Context) error { return ctx.runPlan(multiNodeScenario, renderFig5) }

// renderFig5 renders multi-node speedup, per-node memory bandwidth, and
// aggregate memory volume for the small suite on both clusters.
func renderFig5(ctx *Context) error {
	clusters, err := ctx.planner().Clusters(ctx.Clusters)
	if err != nil {
		return err
	}
	for _, cs := range clusters {
		sweeps, err := ctx.multiSweepAll(cs)
		if err != nil {
			return err
		}
		type metric struct {
			tag  string
			name string
			get  func(r spec.RunResult) float64
		}
		metrics := []metric{
			{"speedup", "speedup (1-node baseline)", nil}, // handled specially
			{"pernode_bw", "per-node memory bandwidth [GB/s]", func(r spec.RunResult) float64 {
				return r.Usage.MemBandwidth() / 1e9 / float64(r.Usage.Nodes)
			}},
			{"memvol", "aggregate memory data volume [GB]", func(r spec.RunResult) float64 {
				return r.Usage.BytesMem / 1e9
			}},
		}
		for _, m := range metrics {
			plot := report.NewPlot(
				fmt.Sprintf("Fig.5 %s %s (small suite)", cs.Name, m.name),
				"processes", m.name)
			var series []report.Series
			for _, name := range bench.Names() {
				res := sweeps[name]
				xs := make([]float64, len(res))
				ys := make([]float64, len(res))
				if m.get == nil {
					sp := analysis.Speedup(analysis.Points(res))
					for i, r := range res {
						xs[i] = float64(r.Usage.Ranks)
						ys[i] = sp[i]
					}
				} else {
					for i, r := range res {
						xs[i] = float64(r.Usage.Ranks)
						ys[i] = m.get(r)
					}
				}
				plot.Add(name, xs, ys)
				series = append(series, report.Series{Name: name, X: xs, Y: ys})
			}
			if err := plot.Write(ctx.out()); err != nil {
				return err
			}
			if err := report.SaveSeriesCSV(ctx.OutDir,
				fmt.Sprintf("fig5_%s_%s.csv", m.tag, cs.Name), "ranks", series); err != nil {
				return err
			}
		}
	}
	return nil
}

// TextCases runs the scaling-case experiment.
func TextCases(ctx *Context) error { return ctx.runPlan(casesScenario, renderTextCases) }

// renderTextCases reproduces the Sect. 5.1.1 scaling-case classification
// table.
func renderTextCases(ctx *Context) error {
	t := report.NewTable("Sect. 5.1.1: multi-node scaling cases",
		"benchmark", "ClusterA", "ClusterB", "paper A", "paper B")
	// The paper's published classification for comparison.
	paper := map[string][2]string{
		"pot3d":      {"A", "A"},
		"weather":    {"B", "A"},
		"tealeaf":    {"B", "B"},
		"hpgmgfv":    {"C", "C"},
		"cloverleaf": {"D", "D"},
		"soma":       {"poor", "poor"},
		"lbm":        {"poor", "poor"},
		"sph-exa":    {"poor", "poor"},
		"minisweep":  {"poor", "poor"},
	}
	a, err := machine.Get("ClusterA")
	if err != nil {
		return err
	}
	b, err := machine.Get("ClusterB")
	if err != nil {
		return err
	}
	sweepsA, err := ctx.multiSweepAll(a)
	if err != nil {
		return err
	}
	sweepsB, err := ctx.multiSweepAll(b)
	if err != nil {
		return err
	}
	for _, name := range bench.Names() {
		caseA := analysis.Classify(analysis.Points(sweepsA[name]))
		caseB := analysis.Classify(analysis.Points(sweepsB[name]))
		p := paper[name]
		t.AddRow(name, caseA.Short(), caseB.Short(), p[0], p[1])
	}
	if err := t.Write(ctx.out()); err != nil {
		return err
	}
	return report.SaveCSV(ctx.OutDir, "text_cases.csv", t)
}

// Fig6 runs the Fig. 6 experiment.
func Fig6(ctx *Context) error { return ctx.runPlan(multiNodeScenario, renderFig6) }

// renderFig6 renders multi-node total power and energy for the small
// suite.
func renderFig6(ctx *Context) error {
	clusters, err := ctx.planner().Clusters(ctx.Clusters)
	if err != nil {
		return err
	}
	for _, cs := range clusters {
		sweeps, err := ctx.multiSweepAll(cs)
		if err != nil {
			return err
		}
		pPlot := report.NewPlot(
			fmt.Sprintf("Fig.6 %s total power vs processes (small suite)", cs.Name),
			"processes", "W")
		ePlot := report.NewPlot(
			fmt.Sprintf("Fig.6 %s total energy vs processes (small suite)", cs.Name),
			"processes", "J")
		var pSeries, eSeries []report.Series
		for _, name := range bench.Names() {
			res := sweeps[name]
			xs := make([]float64, len(res))
			pw := make([]float64, len(res))
			en := make([]float64, len(res))
			for i, r := range res {
				xs[i] = float64(r.Usage.Ranks)
				pw[i] = r.Usage.TotalPower()
				en[i] = r.Usage.TotalEnergy()
			}
			pPlot.Add(name, xs, pw)
			ePlot.Add(name, xs, en)
			pSeries = append(pSeries, report.Series{Name: name, X: xs, Y: pw})
			eSeries = append(eSeries, report.Series{Name: name, X: xs, Y: en})
		}
		if err := pPlot.Write(ctx.out()); err != nil {
			return err
		}
		if err := ePlot.Write(ctx.out()); err != nil {
			return err
		}
		if err := report.SaveSeriesCSV(ctx.OutDir, fmt.Sprintf("fig6_power_%s.csv", cs.Name), "ranks", pSeries); err != nil {
			return err
		}
		if err := report.SaveSeriesCSV(ctx.OutDir, fmt.Sprintf("fig6_energy_%s.csv", cs.Name), "ranks", eSeries); err != nil {
			return err
		}
		// TDP utilisation summary (Sect. 5.2: 74-85% on A, 63-76% on B).
		full := sweeps["sph-exa"][len(sweeps["sph-exa"])-1]
		tdpTotal := float64(full.Usage.Nodes) * float64(cs.CPU.SocketsPerNode) * cs.CPU.TDPPerSocket
		t := report.NewTable(
			fmt.Sprintf("Sect. 5.2 %s: chip power at full scale vs TDP", cs.Name),
			"benchmark", "chip power kW", "% of TDP")
		for _, name := range bench.Names() {
			res := sweeps[name]
			last := res[len(res)-1]
			t.AddRow(name,
				fmt.Sprintf("%.2f", last.Usage.ChipPower()/1e3),
				fmt.Sprintf("%.0f", 100*last.Usage.ChipPower()/tdpTotal))
		}
		if err := t.Write(ctx.out()); err != nil {
			return err
		}
		if err := report.SaveCSV(ctx.OutDir, fmt.Sprintf("fig6_tdp_%s.csv", cs.Name), t); err != nil {
			return err
		}
	}
	return nil
}
