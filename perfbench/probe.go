package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/perfstat"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// span is one traced interval at a layer boundary. Spans of one job share
// its campaign key (Ticket.Key); Parent is 0 for a root span.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Key    string  `json:"key,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// byKey maps a campaign key to the root span of the job that owns it,
	// so store and simulation spans nest under the request that caused
	// them.
	byKey map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byKey: map[string]int64{}} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, key string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 && key != "" {
		parent = t.byKey[key]
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: now, End: math.NaN()})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// own makes span id the parent of every later span carrying key.
func (t *tracer) own(key string, id int64) {
	if t == nil || key == "" {
		return
	}
	t.mu.Lock()
	if _, ok := t.byKey[key]; !ok {
		t.byKey[key] = id
	}
	t.mu.Unlock()
}

// durations is a concurrency-safe list of timings in milliseconds.
type durations struct {
	mu sync.Mutex
	ms []float64
}

func (d *durations) add(v time.Duration) {
	d.mu.Lock()
	d.ms = append(d.ms, float64(v)/1e6)
	d.mu.Unlock()
}

func (d *durations) values() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.ms...)
}

// timedStore wraps the on-disk store to count and time the store layer.
type timedStore struct {
	inner *campaign.DirStore
	tr    *tracer
	// parent, when set, returns the span store calls nest under (the
	// running experiment on the paper workload); otherwise the job that
	// owns the key is the parent.
	parent func() int64

	mu         sync.Mutex
	gets, hits int
	puts       int
	getMs      durations
	putMs      durations
}

func (s *timedStore) Get(key string) (campaign.Record, bool, error) {
	id := s.tr.begin("store.get", key, parentOf(s.parent))
	t0 := time.Now()
	rec, ok, err := s.inner.Get(key)
	s.getMs.add(time.Since(t0))
	s.tr.end(id)
	s.mu.Lock()
	s.gets++
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return rec, ok, err
}

func (s *timedStore) Put(key string, rec campaign.Record) error {
	id := s.tr.begin("store.put", key, parentOf(s.parent))
	t0 := time.Now()
	err := s.inner.Put(key, rec)
	s.putMs.add(time.Since(t0))
	s.tr.end(id)
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return err
}

func parentOf(parent func() int64) int64 {
	if parent == nil {
		return 0
	}
	return parent()
}

// timedRunner is the scheduler's Runner seam wrapped around spec.Run: it
// times every fresh simulation and attributes the parallel engine's
// window counters to the jobs the scheduler granted workers to.
type timedRunner struct {
	tr *tracer
	// parent is as for timedStore.
	parent func() int64

	runMs durations
	mu    sync.Mutex
	runs  int
	fails int
	// partWindows is the sum over granted jobs of windows x partitions,
	// the denominator of psim.idle_frac. Deltas are exact when one job
	// runs at a time, as on lone-jobs.
	partWindows int64
}

func (r *timedRunner) run(rs spec.RunSpec) (spec.RunResult, error) {
	key := campaign.Key(rs)
	id := r.tr.begin("spec.run", key, parentOf(r.parent))
	var before psim.Totals
	if rs.SimWorkers > 1 {
		before = psim.Snapshot()
	}
	t0 := time.Now()
	res, err := spec.Run(rs)
	r.runMs.add(time.Since(t0))
	r.tr.end(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	if err != nil {
		r.fails++
	}
	if rs.SimWorkers > 1 {
		after := psim.Snapshot()
		r.partWindows += (after.Windows - before.Windows) * int64(rs.Cluster.NodesFor(rs.Ranks))
	}
	return res, err
}

// cpuSeconds returns the user+system CPU time of the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters snapshots the Go runtime's allocation and GC counters; gcs
// leaves out the collections the benchmark forces between passes and jobs.
type memCounters struct{ allocs, bytes, gcs float64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{float64(ms.Mallocs), float64(ms.TotalAlloc), float64(ms.NumGC - ms.NumForcedGC)}
}

// pct returns the p-th percentile (0 < p <= 100) by nearest rank; the
// median goes through perfstat so both agree on even-length input.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p == 50 {
		return perfstat.Median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuBuckets maps CPU-profile shares onto layers by the package of the
// function holding the flat time. Runtime functions are split into
// goroutine/channel switching and memory management; anything unlisted
// counts only toward the total.
var cpuBuckets = []struct {
	name  string
	match func(pkg, fn string) bool
}{
	// math holds the kernels' transcendental and min/max calls.
	{"cpu.kernels_frac", func(pkg, _ string) bool {
		return strings.HasPrefix(pkg, "github.com/spechpc/spechpc-sim/internal/benchmarks/") || pkg == "math"
	}},
	{"cpu.psim_frac", exact("github.com/spechpc/spechpc-sim/internal/sim/psim")},
	{"cpu.sim_frac", exact("github.com/spechpc/spechpc-sim/internal/sim")},
	{"cpu.mpi_frac", exact("github.com/spechpc/spechpc-sim/internal/mpi")},
	{"cpu.netsim_frac", exact("github.com/spechpc/spechpc-sim/internal/netsim")},
	{"cpu.machine_frac", func(pkg, _ string) bool {
		return pkg == "github.com/spechpc/spechpc-sim/internal/machine" ||
			pkg == "github.com/spechpc/spechpc-sim/internal/dvfs"
	}},
	{"cpu.campaign_frac", exact("github.com/spechpc/spechpc-sim/internal/campaign")},
	{"cpu.service_frac", func(pkg, _ string) bool {
		return pkg == "github.com/spechpc/spechpc-sim/internal/service" ||
			strings.HasPrefix(pkg, "net") || pkg == "encoding/json" || pkg == "bufio"
	}},
	{"cpu.sched_frac", func(pkg, fn string) bool { return pkg == "runtime" && isSchedFn(fn) }},
	{"cpu.gc_frac", func(pkg, fn string) bool {
		return (pkg == "runtime" && isMemFn(fn)) || pkg == "gcWriteBarrier"
	}},
}

func exact(p string) func(string, string) bool {
	return func(pkg, _ string) bool { return pkg == p }
}

// isSchedFn reports runtime functions on the goroutine-switch and channel
// paths: parking, readying, the scheduler loop, channel and select
// operations, and the futex/lock calls they make.
func isSchedFn(fn string) bool {
	for _, p := range []string{"chan", "select", "gopark", "goready", "ready", "park_m",
		"schedule", "findRunnable", "execute", "gogo", "mcall", "runq", "wakep", "stealWork",
		"futex", "notesleep", "notewakeup", "lock", "unlock", "casgstatus", "send", "recv",
		"acquireSudog", "releaseSudog", "resetspinning", "startm", "stopm", "checkTimers",
		"goexit", "newproc", "procyield", "osyield", "usleep", "semacquire", "semrelease"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isMemFn reports runtime allocation, garbage-collection and memory-clearing
// functions.
func isMemFn(fn string) bool {
	for _, p := range []string{"malloc", "gc", "scan", "mark", "greyobject", "findObject", "sweep",
		"heapBits", "typePointers", "madvise", "memclr", "newobject", "makeslice", "growslice", "wbBuf", "bulkBarrier",
		"nextFreeFast", "(*mspan)", "(*mcache)", "(*mcentral)", "(*mheap)", "(*pageAlloc)",
		"(*gcWork)", "(*gcControllerState)", "(*gcBits)", "(*sweepLocked)"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// splitFunc splits a symbol like "github.com/x/y/pkg.(*T).M" into its
// package path and the function part.
func splitFunc(sym string) (pkg, fn string) {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym, ""
	}
	return sym[:slash+1+dot], sym[slash+2+dot:]
}

// cpuShares buckets a CPU profile's flat time by layer with the
// toolchain's pprof. Every bucket is present in the result.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b.name] = 0
	}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		total += ms
		pkg, fn := splitFunc(strings.Join(f[5:], " "))
		for _, b := range cpuBuckets {
			if b.match(pkg, fn) {
				shares[b.name] += ms
				break
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	for k, v := range shares {
		shares[k] = v / total
	}
	return shares, nil
}

// writeJSONFile writes v as indented JSON.
func writeJSONFile(path string, v any) error {
	data, err := jsonIndent(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
