package scenario

import (
	"strings"
	"testing"
)

// Corpus seeds for the relaxed-JSON loader: accept-path documents
// shaped like the built-in paper figures (node/domain/multinode
// ladders, clock sweeps, fabric overrides, pinned inset jobs) plus the
// documented reject paths. The fuzzer mutates from here; CI runs the
// targets briefly on every push (-fuzztime smoke) and the corpus keeps
// regressions reproducible.
var parseSeeds = []string{
	// Fig. 1/2 shape: full suite over the node ladder on both clusters.
	`{
	  // scaling study
	  "name": "fig12",
	  "title": "node-level scaling",
	  "sweeps": [{"points": "node", "metrics": ["speedup", "wall_s"]}]
	}`,
	// Fig. 3/4 shape: domain ladder, explicit kernels and cluster.
	`{
	  "name": "fig34",
	  "sweeps": [
	    {"benchmarks": ["tealeaf", "lbm"], "clusters": ["ClusterA"],
	     "class": "tiny", "points": "domain", "metrics": ["membw_gbs"]}
	  ]
	}`,
	// Fig. 5/6 shape: multinode ladder with a fabric override.
	`{
	  "name": "fig56",
	  "sweeps": [
	    {"points": "multinode", "sim_steps": 2,
	     "net": {"link_bandwidth_gbs": 25, "inter_node_latency_us": 1.5}}
	  ]
	}`,
	// Frequency sweep at one domain, full ladder.
	`{"name": "clocks", "sweeps": [{"points": "one-domain", "clocks": "ladder"}]}`,
	// Explicit clock list on a one-point rank axis.
	`{"name": "clocks2", "sweeps": [{"points": [18], "clocks": [1.2, 1.6, 2.4]}]}`,
	// Pinned inset jobs (minisweep@59, lbm@71).
	`{
	  "name": "insets",
	  "jobs": [
	    {"benchmark": "minisweep", "cluster": "ClusterA", "ranks": 59},
	    {"benchmark": "lbm", "cluster": "ClusterA", "ranks": 71, "clock_ghz": 2.0}
	  ]
	}`,
	// Reject paths: a "mode" key (scenario files have no query tier;
	// only HTTP jobs do), unknown key, bad preset, another "mode", two
	// documents, clock sweep over a multi-point axis, empty scenario.
	`{"name": "fastpath", "mode": "fast", "sweeps": [{"points": [2, 8, 20]}]}`,
	`{"name": "x", "sweeps": [{"points": "node", "typo_key": 1}]}`,
	`{"name": "x", "sweeps": [{"points": "bogus-preset"}]}`,
	`{"name": "x", "mode": "turbo", "sweeps": [{"points": [1]}]}`,
	`{"name": "x", "jobs": [{"benchmark": "lbm", "cluster": "A", "ranks": 1}]} {"second": true}`,
	`{"name": "x", "sweeps": [{"points": [1, 2], "clocks": "ladder"}]}`,
	`{"name": "x"}`,
	`not json at all`,
	`// only a comment`,
}

// FuzzParse asserts the loader never panics and that every accepted
// document is internally consistent: it validates, carries a name, and
// parses identically a second time (the loader has no hidden state).
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data, "fuzz")
		if err != nil {
			if sc != nil {
				t.Fatalf("Parse returned both a scenario and an error: %v", err)
			}
			return
		}
		if sc == nil {
			t.Fatal("Parse returned nil scenario without an error")
		}
		if sc.Name == "" {
			t.Fatal("accepted scenario has no name (fallback not applied)")
		}
		if verr := sc.Validate(); verr != nil {
			t.Fatalf("accepted scenario fails its own validation: %v", verr)
		}
		again, err := Parse(data, "fuzz")
		if err != nil {
			t.Fatalf("second parse of an accepted document failed: %v", err)
		}
		if again.Name != sc.Name || len(again.Sweeps) != len(sc.Sweeps) ||
			len(again.Jobs) != len(sc.Jobs) {
			t.Fatalf("parse is not deterministic: %+v vs %+v", sc, again)
		}
	})
}

// FuzzStripComments asserts comment stripping never panics, never grows
// the input, preserves the line count (errors keep pointing at real
// lines), and is idempotent.
func FuzzStripComments(f *testing.F) {
	f.Add([]byte("// comment\n{\"a\": 1}\n"))
	f.Add([]byte("{\"url\": \"http://x//y\"}"))
	f.Add([]byte("  // indented\r\n\t// tabbed\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		once := stripComments(data)
		if len(once) > len(data) {
			t.Fatalf("stripComments grew the input: %d -> %d bytes", len(data), len(once))
		}
		if got, want := strings.Count(string(once), "\n"), strings.Count(string(data), "\n"); got != want {
			t.Fatalf("line count changed: %d -> %d", want, got)
		}
		twice := stripComments(once)
		if string(twice) != string(once) {
			t.Fatal("stripComments is not idempotent")
		}
	})
}
