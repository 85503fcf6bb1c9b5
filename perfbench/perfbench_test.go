package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// minimal is each workload at the smallest size that still runs every
// layer it exercises.
var minimal = map[string]int{
	"paper":      4,  // table1-3 and Fig. 1
	"lone-jobs":  2,  // lbm and soma on ClusterA
	"serve-jobs": 60, // 60 requests over the first 60 universe entries
}

func selfTestConfig(t *testing.T, workload string, trace bool, refDir string) config {
	return config{
		workload: workload, seed: 7, trace: trace, nproc: 2, size: minimal[workload],
		refDir: refDir, outDir: t.TempDir(), workDir: t.TempDir(),
	}
}

func runMinimal(t *testing.T, workload string, trace bool, refDir string) (*run, result) {
	t.Helper()
	r, err := execute(selfTestConfig(t, workload, trace, refDir))
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r, r.result()
}

// TestSelf runs every workload of BENCHMARK.json at minimal size, untraced
// and twice traced, and checks the metrics it promises, the answers, and
// that the exact work counters repeat exactly.
func TestSelf(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	exact := map[string][]string{
		"paper":     {"campaign.fresh_sims", "campaign.jobs", "spec.runs"},
		"lone-jobs": {"campaign.fresh_sims", "psim.windows", "psim.mail"},
	}
	for _, w := range bj.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, res := runMinimal(t, w.Name, false, "testdata")
			if !res.Correct || res.Failed != 0 {
				t.Errorf("untraced run failed %d of %d operations: %v", res.Failed, res.Attempted, r.firstFailures)
			}
			if len(res.Metrics) != len(bj.EndToEnd) {
				t.Errorf("emitted %d end-to-end metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bj.EndToEnd))
			}
			for _, m := range bj.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			_, first := runMinimal(t, w.Name, true, "testdata")
			_, second := runMinimal(t, w.Name, true, "testdata")
			if len(first.Metrics) != len(bj.PerLayer) {
				t.Errorf("emitted %d per-layer metrics, BENCHMARK.json lists %d", len(first.Metrics), len(bj.PerLayer))
			}
			for _, m := range bj.PerLayer {
				if got, ok := first.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range exact[w.Name] {
				a, b := first.Metrics[name].Value, second.Metrics[name].Value
				if a != b || a <= 0 {
					t.Errorf("%s is not an exact positive count: %g then %g", name, a, b)
				}
			}
		})
	}
}

// TestGateFails corrupts one reference value per workload and requires the
// correctness gate to count failures, proving it can fail.
func TestGateFails(t *testing.T) {
	refDir := t.TempDir()
	copyDir(t, "testdata", refDir)

	var refs map[string]jobRef
	data, err := os.ReadFile(filepath.Join(refDir, jobsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &refs); err != nil {
		t.Fatal(err)
	}
	for name, ref := range refs {
		ref.Wall *= 1.001
		refs[name] = ref
	}
	writeFile(t, filepath.Join(refDir, jobsFile), mustJSON(t, refs))

	csv := filepath.Join(refDir, "paper", "fig1_speedup_ClusterA.csv")
	body, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, csv, []byte(strings.Replace(string(body), "\n2,1.9", "\n2,1.8", 1)))

	for _, w := range []string{"paper", "lone-jobs", "serve-jobs"} {
		r, res := runMinimal(t, w, false, refDir)
		if frac := r.endToEndValues()["fail_frac"]; res.Correct || !(frac > 0) {
			t.Errorf("%s: corrupted reference gave correct=%v fail_frac=%g", w, res.Correct, frac)
		}
	}
}

func TestCellMatches(t *testing.T) {
	for _, c := range []struct {
		ref, got string
		want     bool
	}{
		{"1.9999917513654364", "1.9999917513654364", true},
		{"1.9999917513654364", "1.9999917513654371", true}, // last digits
		{"1.9999917513654364", "1.9999937513654364", false},
		{"11.0", "11.1", true}, // one unit of the last printed digit
		{"11.0", "11.2", false},
		{"1.39x", "1.40x", true},
		{"1.39x", "1.39", false},
		{"800 MHz", "900 MHz", false},
		{"poor", "D", false},
	} {
		if got := cellMatches(c.ref, c.got); got != c.want {
			t.Errorf("cellMatches(%q, %q) = %v, want %v", c.ref, c.got, got, c.want)
		}
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
