package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// Scenario files are JSON with one relaxation: lines whose first
// non-blank characters are "//" are comments. Unknown keys are rejected,
// so typos fail loudly instead of silently running a different study.
// See docs/SCENARIOS.md for the full format reference.

// fileScenario mirrors the on-disk schema.
type fileScenario struct {
	Name   string      `json:"name"`
	Title  string      `json:"title"`
	Sweeps []fileSweep `json:"sweeps"`
	Jobs   []fileJob   `json:"jobs"`
}

type fileSweep struct {
	Benchmarks []string `json:"benchmarks"`
	Clusters   []string `json:"clusters"`
	Class      string   `json:"class"`
	// Points is either a preset name ("node", "domain", "multinode",
	// "one-domain") or an explicit rank list.
	Points json.RawMessage `json:"points"`
	// Clocks is either "ladder" or an explicit GHz list; absent = no
	// frequency axis.
	Clocks   json.RawMessage `json:"clocks"`
	SimSteps int             `json:"sim_steps"`
	ScaleDiv int             `json:"scale_div"`
	Metrics  []string        `json:"metrics"`
	Net      *fileNet        `json:"net"`
}

// fileNet overrides individual fields of the default HDR100 fabric, in
// human units (GB/s, microseconds, KiB). Pointer fields distinguish
// "absent" from zero.
type fileNet struct {
	Name               *string  `json:"name"`
	LinkBandwidthGBs   *float64 `json:"link_bandwidth_gbs"`
	IntraNodeLatencyUs *float64 `json:"intra_node_latency_us"`
	InterNodeLatencyUs *float64 `json:"inter_node_latency_us"`
	ShmemBandwidthGBs  *float64 `json:"shmem_bandwidth_gbs"`
	ShmemPerFlowGBs    *float64 `json:"shmem_per_flow_gbs"`
	EagerThresholdKiB  *float64 `json:"eager_threshold_kib"`
	SendOverheadUs     *float64 `json:"send_overhead_us"`
	RecvOverheadUs     *float64 `json:"recv_overhead_us"`
}

type fileJob struct {
	Benchmark string  `json:"benchmark"`
	Cluster   string  `json:"cluster"`
	Class     string  `json:"class"`
	Ranks     int     `json:"ranks"`
	ClockGHz  float64 `json:"clock_ghz"`
	SimSteps  int     `json:"sim_steps"`
	ScaleDiv  int     `json:"scale_div"`
}

// stripComments removes full-line // comments (leading whitespace
// allowed) so scenario files can be annotated. Inline comments are not
// supported: "//" is valid inside JSON strings (URLs), and full-line
// stripping never has to guess.
func stripComments(data []byte) []byte {
	lines := bytes.Split(data, []byte("\n"))
	out := make([][]byte, 0, len(lines))
	for _, line := range lines {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("//")) {
			out = append(out, nil)
			continue
		}
		out = append(out, line)
	}
	return bytes.Join(out, []byte("\n"))
}

// parsePoints decodes the polymorphic points field.
func parsePoints(raw json.RawMessage) (Points, error) {
	if len(raw) == 0 {
		return Points{}, fmt.Errorf("scenario: sweep without points")
	}
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		return Points{Kind: PointsKind(name)}, nil
	}
	var list []int
	if err := json.Unmarshal(raw, &list); err == nil {
		return Points{Kind: PointsList, List: list}, nil
	}
	return Points{}, fmt.Errorf("scenario: points must be a preset name or a rank list, got %s", raw)
}

// parseClocks decodes the polymorphic clocks field.
func parseClocks(raw json.RawMessage) (Clocks, error) {
	if len(raw) == 0 {
		return Clocks{}, nil
	}
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		if !strings.EqualFold(name, "ladder") {
			return Clocks{}, fmt.Errorf("scenario: clocks must be \"ladder\" or a GHz list, got %q", name)
		}
		return Clocks{Ladder: true}, nil
	}
	var list []float64
	if err := json.Unmarshal(raw, &list); err == nil {
		return Clocks{GHz: list}, nil
	}
	return Clocks{}, fmt.Errorf("scenario: clocks must be \"ladder\" or a GHz list, got %s", raw)
}

// parseNet applies overrides on top of the default HDR100 fabric.
func parseNet(fn *fileNet) *netsim.Spec {
	if fn == nil {
		return nil
	}
	n := netsim.HDR100()
	set := func(dst *float64, src *float64, scale float64) {
		if src != nil {
			*dst = *src * scale
		}
	}
	if fn.Name != nil {
		n.Name = *fn.Name
	}
	set(&n.LinkBandwidth, fn.LinkBandwidthGBs, units.G)
	set(&n.IntraNodeLatency, fn.IntraNodeLatencyUs, 1e-6)
	set(&n.InterNodeLatency, fn.InterNodeLatencyUs, 1e-6)
	set(&n.ShmemBandwidthPerNode, fn.ShmemBandwidthGBs, units.G)
	set(&n.ShmemPerFlowMax, fn.ShmemPerFlowGBs, units.G)
	set(&n.EagerThreshold, fn.EagerThresholdKiB, 1024)
	set(&n.SendOverhead, fn.SendOverheadUs, 1e-6)
	set(&n.RecvOverhead, fn.RecvOverheadUs, 1e-6)
	return &n
}

// Parse decodes and validates a scenario document. fallbackName names
// the scenario when the document does not (callers pass the file stem).
func Parse(data []byte, fallbackName string) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(stripComments(data)))
	dec.DisallowUnknownFields()
	var fs fileScenario
	if err := dec.Decode(&fs); err != nil {
		return nil, fmt.Errorf("scenario: parsing: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		// A second document (merge artifact, stray text) would otherwise
		// be dropped silently — the opposite of failing loudly.
		return nil, fmt.Errorf("scenario: trailing content after the scenario document")
	}
	sc := &Scenario{Name: fs.Name, Title: fs.Title}
	if sc.Name == "" {
		sc.Name = fallbackName
	}
	for i, s := range fs.Sweeps {
		class, err := bench.ParseClass(s.Class)
		if err != nil {
			return nil, fmt.Errorf("scenario sweep %d: %w", i+1, err)
		}
		points, err := parsePoints(s.Points)
		if err != nil {
			return nil, fmt.Errorf("scenario sweep %d: %w", i+1, err)
		}
		clocks, err := parseClocks(s.Clocks)
		if err != nil {
			return nil, fmt.Errorf("scenario sweep %d: %w", i+1, err)
		}
		sc.Sweeps = append(sc.Sweeps, Sweep{
			Benchmarks: s.Benchmarks,
			Clusters:   s.Clusters,
			Class:      class,
			Points:     points,
			Clocks:     clocks,
			SimSteps:   s.SimSteps,
			ScaleDiv:   s.ScaleDiv,
			Net:        parseNet(s.Net),
			Metrics:    s.Metrics,
		})
	}
	for i, j := range fs.Jobs {
		class, err := bench.ParseClass(j.Class)
		if err != nil {
			return nil, fmt.Errorf("scenario job %d: %w", i+1, err)
		}
		sc.Jobs = append(sc.Jobs, Job{
			Benchmark: j.Benchmark,
			Cluster:   j.Cluster,
			Class:     class,
			Ranks:     j.Ranks,
			ClockGHz:  j.ClockGHz,
			SimSteps:  j.SimSteps,
			ScaleDiv:  j.ScaleDiv,
		})
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// LoadFile reads and parses a scenario file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	stem := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	sc, err := Parse(data, stem)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}
