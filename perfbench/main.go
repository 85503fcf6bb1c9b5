package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/spechpc/spechpc-sim/internal/perfstat"
)

// outDir holds everything a run leaves behind: scratch stores, traces,
// CPU profiles and the results ledger. It is relative to the checkout
// root.
const outDir = ".bench_build/perfbench"

// metricDef names one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported on every
// workload by untraced runs. A job is the workload's unit of user work:
// a fresh simulation on paper, a submitted job on lone-jobs, an HTTP
// request on serve-jobs.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"warm_s", "s"},
	{"job_p50_ms", "ms"}, {"job_p99_ms", "ms"}, {"jobs_per_s", "1/s"},
}

// perLayer are the metrics of single layers, reported by traced runs.
// Every workload reports all of them; a layer the workload bypasses
// reads 0.
var perLayer = []metricDef{
	{"figures.node_s", "s"}, {"figures.multinode_s", "s"},
	{"campaign.jobs", "count"}, {"campaign.memo_hits", "count"}, {"campaign.store_hits", "count"},
	{"campaign.fresh_sims", "count"}, {"campaign.coalesced", "count"},
	{"spec.runs", "count"}, {"spec.busy_s", "s"}, {"spec.run_ms_p50", "ms"}, {"spec.run_ms_p99", "ms"},
	{"spec.run_ms_max", "ms"}, {"spec.pool_util", "frac"},
	{"store.gets", "count"}, {"store.get_ms_p50", "ms"}, {"store.get_ms_p99", "ms"}, {"store.puts", "count"},
	{"store.put_ms_p50", "ms"}, {"store.put_ms_p99", "ms"}, {"store.bytes", "B"}, {"store.hit_ratio", "frac"},
	{"service.submit_ms_p50", "ms"}, {"service.submit_ms_p99", "ms"}, {"service.status_ms_p50", "ms"},
	{"service.status_ms_p99", "ms"}, {"service.polls_per_job", "count"},
	{"surrogate.fit_s", "s"}, {"surrogate.models", "count"}, {"surrogate.hits", "count"},
	{"surrogate.refused", "count"}, {"surrogate.no_model", "count"}, {"surrogate.hit_ratio", "frac"},
	{"psim.runs", "count"}, {"psim.windows", "count"}, {"psim.adaptive_windows", "count"}, {"psim.mail", "count"},
	{"psim.idle_parts", "count"}, {"psim.idle_frac", "frac"},
	{"cpu.kernels_frac", "frac"}, {"cpu.sim_frac", "frac"}, {"cpu.psim_frac", "frac"}, {"cpu.mpi_frac", "frac"},
	{"cpu.netsim_frac", "frac"}, {"cpu.machine_frac", "frac"}, {"cpu.sched_frac", "frac"}, {"cpu.gc_frac", "frac"},
	{"cpu.campaign_frac", "frac"}, {"cpu.service_frac", "frac"},
	{"go.allocs", "count"}, {"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.peak_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
	refDir   string // reference values
	outDir   string // traces, profiles and the results ledger
	workDir  string // scratch space, removed at exit
	// size shrinks a workload for the self-test (0 = full size).
	size int
}

// run is one invocation's state and measurements. Workloads append one
// entry per pass to wall/cpu and one per set-up to setup.
type run struct {
	cfg   config
	start time.Time

	setup, wall, cpu, warm []float64 // seconds
	lat                    []float64 // ms, one per job
	jobs                   int       // jobs completed in the measured passes
	attempted, failed      int
	tracedWall             []float64
	untracedWall           []float64

	// layers holds the per-layer metrics of the first traced pass; spans
	// its trace.
	layers   map[string]float64
	spans    []span
	profPath string
	// firstFailures keeps a few failure messages for standard error.
	firstFailures []string
}

// workload is one named load.
type workload struct {
	name string
	run  func(*run) error
}

var workloads = []workload{
	{"paper", runPaper},
	{"lone-jobs", runLoneJobs},
	{"serve-jobs", runServeJobs},
}

func main() {
	cfg := config{nproc: runtime.NumCPU(), refDir: "perfbench/testdata", outDir: outDir}
	flag.StringVar(&cfg.workload, "workload", "", "workload name: paper, lone-jobs or serve-jobs")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measuring budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	rec := flag.Bool("record", false, "rewrite the reference values from the current code and exit")
	summarize := flag.String("summarize", "", "print statistics of a results ledger and exit")
	flag.Parse()
	cfg.trace = *traceFlag == 1

	if err := mainErr(cfg, *rec, *summarize); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, rec bool, summarize string) error {
	runtime.GOMAXPROCS(cfg.nproc)
	switch {
	case summarize != "":
		return summarizeLedger(summarize, os.Stdout)
	case rec:
		return record(cfg.refDir, cfg.nproc)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.workDir = work
	r, err := execute(cfg)
	if err != nil {
		return err
	}
	res := r.result()
	h := stamp(cfg, r.attempted)
	printReport(os.Stdout, cfg, h, r, res)
	if err := appendLedger(h, cfg, res); err != nil {
		return err
	}
	if cfg.trace {
		name := fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)
		if err := writeJSONFile(filepath.Join(cfg.outDir, name), map[string]any{
			"host": h, "metrics": r.layers, "spans": r.spans,
		}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// execute runs one workload and returns its measurements.
func execute(cfg config) (*run, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			r := &run{cfg: cfg, start: time.Now(), layers: map[string]float64{}}
			if err := w.run(r); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, lone-jobs or serve-jobs)", cfg.workload)
}

// minPasses is the fewest passes a run makes, whatever its budget, so
// that every reported time is a median of at least three.
const minPasses = 3

// passes runs pass until the measuring budget is spent: after minPasses,
// a pass starts only if the previous one's duration still fits. Traced
// runs alternate untraced and traced passes; pass 1 is the traced pass
// whose layer metrics, spans and CPU profile are reported.
func (r *run) passes(pass func(i int, tr *tracer) error) error {
	deadline := r.start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var last time.Duration
	for i := 0; i < minPasses || time.Now().Add(last).Before(deadline); i++ {
		var tr *tracer
		if r.cfg.trace && i%2 == 1 {
			tr = newTracer()
		}
		// Start every pass from a collected heap, so one pass's garbage
		// does not bill the next.
		runtime.GC()
		t0 := time.Now()
		n := len(r.wall)
		if err := pass(i, tr); err != nil {
			return err
		}
		last = time.Since(t0)
		if len(r.wall) > n {
			if tr != nil {
				r.tracedWall = append(r.tracedWall, r.wall[n])
			} else {
				r.untracedWall = append(r.untracedWall, r.wall[n])
			}
		}
		if i == 1 && tr != nil {
			shares, err := cpuShares(r.profPath)
			if err != nil {
				return err
			}
			for k, v := range shares {
				r.layers[k] = v
			}
			r.spans = tr.spans
		}
	}
	return nil
}

// profile starts the CPU profiler over the measured part of a traced
// pass and returns the function that stops it; untraced passes (nil tr)
// profile nothing.
func (r *run) profile(i int, tr *tracer) (stop func() error, err error) {
	if tr == nil {
		return func() error { return nil }, nil
	}
	f, err := os.Create(filepath.Join(r.cfg.outDir, fmt.Sprintf("cpu-%s-seed%d-pass%d.pprof", r.cfg.workload, r.cfg.seed, i)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	r.profPath = f.Name()
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// fail counts one failed operation, keeping the first messages.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.firstFailures) < 5 {
		r.firstFailures = append(r.firstFailures, fmt.Sprintf(format, args...))
	}
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues reduces the measurements to the end-to-end metrics.
// Times are medians over the run's passes, so one slow pass does not move
// them.
func (r *run) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":    pct(r.setup, 50),
		"wall_s":     pct(r.wall, 50),
		"cpu_s":      pct(r.cpu, 50),
		"warm_s":     pct(r.warm, 50),
		"job_p50_ms": pct(r.lat, 50),
		"job_p99_ms": pct(r.lat, 99),
		"jobs_per_s": ratio(float64(r.jobs), sum(r.wall)),
		"fail_frac":  ratio(float64(r.failed), float64(r.attempted)),
	}
}

func (r *run) result() result {
	res := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	if r.cfg.trace {
		r.layers["go.peak_rss_mb"] = peakRSSMB()
		if len(r.tracedWall) > 0 && len(r.untracedWall) > 0 {
			r.layers["trace.overhead_s"] = pct(r.tracedWall, 50) - pct(r.untracedWall, 50)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{r.layers[m.name], m.unit}
		}
		return res
	}
	v := r.endToEndValues()
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	return res
}

// host is the stamp carried by every result record: numbers from
// different hosts must never be compared.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Requests   int    `json:"requests"`
	Time       string `json:"time"`
}

func stamp(cfg config, requests int) host {
	return host{
		Nproc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: commit(), Seed: cfg.seed, Requests: requests,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the git revision when the checkout is
// a repository, otherwise a hash of every Go source and module file.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// printReport prints the host stamp and every metric by name and unit.
func printReport(w io.Writer, cfg config, h host, r *run, res result) {
	hs, _ := json.Marshal(h)
	fmt.Fprintf(w, "# host %s\n", hs)
	fmt.Fprintf(w, "# %s seed=%d trace=%v attempted=%d failed=%d pass wall_s=%.4g setup_s=%.4g\n",
		cfg.workload, cfg.seed, cfg.trace, r.attempted, r.failed, r.wall, r.setup)
	for _, msg := range r.firstFailures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-24s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if !cfg.trace {
		fmt.Fprintf(w, "%-24s %14.6g %s\n", "fail_frac", r.endToEndValues()["fail_frac"], "frac")
	}
}

// ledgerRecord is one line of the results ledger.
type ledgerRecord struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	result
}

func appendLedger(h host, cfg config, res result) error {
	line, err := json.Marshal(ledgerRecord{Host: h, Workload: cfg.workload, Trace: cfg.trace, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarizeLedger prints, per host and commit, workload and metric, the
// median and quartiles of the recorded runs, their spread (quartile
// distance over median) and the Mann-Whitney p-value of the first half of
// the runs against the second.
func summarizeLedger(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type group struct{ host, workload, metric string }
	vals := map[group][]float64{}
	var order []group
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec ledgerRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		host := fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, commit %s",
			rec.Host.CPU, rec.Host.Nproc, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Commit)
		for name, m := range rec.Metrics {
			g := group{host, rec.Workload, name}
			if _, ok := vals[g]; !ok {
				order = append(order, g)
			}
			vals[g] = append(vals[g], m.Value)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.host != b.host {
			return a.host < b.host
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		return a.metric < b.metric
	})
	for i, g := range order {
		if i == 0 || g.host != order[i-1].host {
			fmt.Fprintf(w, "# %s\n%-11s %-24s %3s %12s %12s %12s %7s %6s\n",
				g.host, "workload", "metric", "n", "q1", "median", "q3", "spread", "p")
		}
		xs := vals[g]
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		med, q1, q3 := perfstat.Median(s), s[0], s[0]
		if len(s) > 1 {
			q1, q3 = perfstat.Median(s[:len(s)/2]), perfstat.Median(s[(len(s)+1)/2:])
		}
		half := len(xs) / 2
		fmt.Fprintf(w, "%-11s %-24s %3d %12.5g %12.5g %12.5g %7.3f %6.3f\n", g.workload, g.metric, len(xs),
			q1, med, q3, ratio(q3-q1, med), perfstat.MannWhitneyU(xs[:half], xs[half:]))
	}
	return nil
}

func jsonIndent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
