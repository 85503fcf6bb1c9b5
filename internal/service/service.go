// Package service is the HTTP serving layer over the asynchronous
// campaign scheduler: the paper's query shape — "run this benchmark x
// cluster x rank/clock point and derive metrics" — exposed as a JSON
// API instead of a CLI invocation.
//
// A Server wraps one long-lived campaign.Scheduler. Clients submit
// single jobs, poll their status, and fetch results as JSON or CSV.
// Identical submissions — across requests, and across HTTP and any
// in-process use of the same scheduler — coalesce onto one simulation;
// with a persistent store attached, results also survive restarts, so a
// repeated query costs a disk read. Whole studies (scenario files) run
// through the CLIs instead (spechpc -scenario, figures -scenario);
// pointed at the daemon's -cache-dir, they share its results.
// cmd/spechpcd is the daemon front end.
//
// Endpoints (all under the mux returned by Handler):
//
//	GET    /healthz                       liveness probe
//	GET    /readyz                        readiness probe (503 while draining)
//	GET    /statsz                        scheduler + store counters
//	GET    /api/v1/benchmarks             registered kernels
//	GET    /api/v1/clusters               registered clusters
//	POST   /api/v1/jobs                   submit one job
//	GET    /api/v1/jobs                   list submitted jobs
//	GET    /api/v1/jobs/{id}              job status + result
//	DELETE /api/v1/jobs/{id}              cancel a queued job
//	GET    /api/v1/jobs/{id}/csv          result metrics as CSV
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite" // register all kernels
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/surrogate"
)

// Options tunes a Server.
type Options struct {
	// Surrogate attaches the analytic fast tier: New registers the index
	// as the scheduler's predictor (and feedback observer), mode=fast
	// submissions may be answered from its fitted models, and /statsz
	// gains a surrogate block. Nil serves every query exactly.
	Surrogate *surrogate.Index
}

// Server serves the campaign scheduler over HTTP. Construct with New;
// all methods are safe for concurrent use.
type Server struct {
	sched *campaign.Scheduler
	opts  Options

	mu       sync.Mutex
	jobs     map[string]*jobSub
	jobOrder []string
	nextJob  int

	// Store-usage cache for /statsz: walking a big store per scrape
	// would be O(records) disk I/O, so the numbers refresh at most once
	// per storeStatsTTL.
	storeStats   *statszStore
	storeStatsAt time.Time

	// draining flips first in Close: /readyz goes unready while
	// in-flight work still completes.
	draining atomic.Bool
}

// New wraps a scheduler in a Server. The scheduler may be shared with
// in-process callers; the service's submissions coalesce with theirs.
func New(sched *campaign.Scheduler, opts Options) *Server {
	if opts.Surrogate != nil {
		sched.SetPredictor(opts.Surrogate)
	}
	return &Server{
		sched: sched,
		opts:  opts,
		jobs:  map[string]*jobSub{},
	}
}

// maxRetainedJobs caps the job history: the daemon keeps a bounded
// record of finished submissions so a sustained workload cannot grow
// its memory without bound. Only resolved jobs are evicted — in-flight
// work always survives — oldest first; with a persistent store
// attached, an evicted job's result remains one identical resubmission
// away.
const maxRetainedJobs = 1024

// evictJobsLocked trims resolved job history down to the cap. Callers
// hold s.mu.
func (s *Server) evictJobsLocked() {
	if len(s.jobOrder) <= maxRetainedJobs {
		return
	}
	kept := s.jobOrder[:0]
	over := len(s.jobOrder) - maxRetainedJobs
	for _, id := range s.jobOrder {
		js := s.jobs[id]
		if over > 0 {
			if _, resolved := js.ticket.Outcome(); resolved {
				delete(s.jobs, id)
				over--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /api/v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /api/v1/clusters", s.handleClusters)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /api/v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/csv", s.handleJobCSV)
	return mux
}

// Close flips /readyz to draining and releases every submission's
// claim on its job: queued jobs no other caller wants are dropped,
// running simulations complete and memoize. The daemon calls this on
// graceful shutdown, before closing the scheduler.
func (s *Server) Close() {
	// Unready first: /readyz flips before any work is cancelled, so a
	// load balancer stops routing here while the drain proceeds.
	s.draining.Store(true)
	s.mu.Lock()
	jobs := make([]*jobSub, 0, len(s.jobs))
	for _, js := range s.jobs {
		jobs = append(jobs, js)
	}
	s.mu.Unlock()
	for _, js := range jobs {
		js.ticket.Cancel()
	}
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders the uniform error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps every request body the service reads: a job
// request is a few hundred bytes, so anything near this size is abuse
// and must not be buffered in full before validation rejects it.
const maxBodyBytes = 1 << 20

// bodyStatus maps a request-body read or decode error onto its HTTP
// status: 413 once the body exceeds maxBodyBytes, else 400.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe — distinct from /healthz
// liveness: a live process may still be unable to do useful work. Ready
// means the scheduler is accepting (not draining, not closed). Load
// balancers use this to pull a draining daemon out of rotation while
// /healthz still answers ok.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || s.sched.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// statszResponse is the /statsz schema. The campaign counter names
// mirror Stats.String(): scripts/service_smoke.sh reads fresh_sims to
// assert a warm service re-serves a repeated job without simulating.
type statszResponse struct {
	Campaign   statszCampaign `json:"campaign"`
	Workers    int            `json:"workers"`
	QueueDepth int            `json:"queue_depth"`
	Active     int            `json:"active"`
	Jobs       int            `json:"jobs_submitted"`
	Store      *statszStore   `json:"store"`
	// Surrogate is present when an analytic surrogate index is attached
	// (Options.Surrogate).
	Surrogate *statszSurrogate `json:"surrogate,omitempty"`
	// Psim is the process-wide partitioned-engine window accounting:
	// how many runs used the parallel engine, how many windows they
	// executed, and how far the adaptive oracle widened them.
	Psim statszPsim `json:"psim"`
}

// statszPsim mirrors psim.Totals for scrapes; window spans are virtual
// seconds.
type statszPsim struct {
	Runs            int64   `json:"runs"`
	Windows         int64   `json:"windows"`
	AdaptiveWindows int64   `json:"adaptive_windows"`
	Mail            int64   `json:"mail_merged"`
	IdleParts       int64   `json:"idle_partition_windows"`
	WidestWindow    float64 `json:"widest_window_s"`
	NarrowestWindow float64 `json:"narrowest_window_s"`
}

type statszCampaign struct {
	Jobs        int `json:"jobs"`
	MemoHits    int `json:"memo_hits"`
	Coalesced   int `json:"coalesced"`
	StoreHits   int `json:"store_hits"`
	FreshSims   int `json:"fresh_sims"`
	StoreFaults int `json:"store_faults"`
	Cancelled   int `json:"cancelled"`
	// Surrogate taxonomy, mirroring Stats: hits answered from the fast
	// tier, misses had no fitted model, refused had a model outside its
	// hull or tolerance (both fall back to exact simulation).
	SurrogateHits    int `json:"surrogate_hits"`
	SurrogateMisses  int `json:"surrogate_misses"`
	SurrogateRefused int `json:"surrogate_refused"`
}

// statszSurrogate is the model-inventory view of the attached index.
type statszSurrogate struct {
	Models   int   `json:"models"`
	Families int   `json:"families"`
	Observed int64 `json:"observed"`
	Hits     int64 `json:"hits"`
	Refused  int64 `json:"refused"`
	NoModel  int64 `json:"no_model"`
}

type statszStore struct {
	Dir     string `json:"dir"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
}

// handleStatsz reports scheduler and store counters.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	resp := statszResponse{
		Campaign: statszCampaign{
			Jobs:             st.Jobs,
			MemoHits:         st.Hits,
			Coalesced:        st.Coalesced,
			StoreHits:        st.StoreHits,
			FreshSims:        st.Misses,
			StoreFaults:      st.StoreFaults,
			Cancelled:        st.Cancelled,
			SurrogateHits:    st.SurrogateHits,
			SurrogateMisses:  st.SurrogateMisses,
			SurrogateRefused: st.SurrogateRefused,
		},
		Workers:    s.sched.Workers(),
		QueueDepth: s.sched.QueueDepth(),
		Active:     s.sched.Active(),
		Jobs:       jobs,
	}
	resp.Store = s.storeUsage()
	if idx := s.opts.Surrogate; idx != nil {
		fitted, families := idx.Models()
		hits, refused, noModel, observed := idx.Counters()
		resp.Surrogate = &statszSurrogate{
			Models: fitted, Families: families, Observed: observed,
			Hits: hits, Refused: refused, NoModel: noModel,
		}
	}
	pt := psim.Snapshot()
	resp.Psim = statszPsim{
		Runs:            pt.Runs,
		Windows:         pt.Windows,
		AdaptiveWindows: pt.AdaptiveWindows,
		Mail:            pt.Mail,
		IdleParts:       pt.IdleParts,
		WidestWindow:    pt.Widest,
		NarrowestWindow: pt.Narrowest,
	}
	writeJSON(w, http.StatusOK, resp)
}

// storeStatsTTL bounds how often /statsz re-walks the on-disk store.
const storeStatsTTL = 5 * time.Second

// storeUsage returns the (possibly cached) store size block, or nil
// when no DirStore backs the scheduler.
func (s *Server) storeUsage() *statszStore {
	ds, ok := s.sched.Store().(*campaign.DirStore)
	if !ok {
		return nil
	}
	s.mu.Lock()
	if s.storeStats != nil && time.Since(s.storeStatsAt) < storeStatsTTL {
		cached := s.storeStats
		s.mu.Unlock()
		return cached
	}
	s.mu.Unlock()

	records, bytes, err := ds.Usage() // off the lock: this walks the store
	if err != nil {
		return nil
	}
	fresh := &statszStore{Dir: ds.Dir(), Records: records, Bytes: bytes}
	s.mu.Lock()
	s.storeStats, s.storeStatsAt = fresh, time.Now()
	s.mu.Unlock()
	return fresh
}

// handleBenchmarks lists the registered kernels.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type benchInfo struct {
		ID          int    `json:"id"`
		Name        string `json:"name"`
		Language    string `json:"language"`
		Collective  string `json:"collective"`
		MemoryBound bool   `json:"memory_bound"`
		Numerics    string `json:"numerics"`
	}
	var out []benchInfo
	for _, b := range bench.All() {
		out = append(out, benchInfo{
			ID: b.ID, Name: b.Name, Language: b.Language,
			Collective: b.Collective, MemoryBound: b.MemoryBound,
			Numerics: b.Numerics,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleClusters lists the registered clusters with the geometry a
// client needs to pick rank and clock points.
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	type clusterInfo struct {
		Name           string    `json:"name"`
		CPU            string    `json:"cpu"`
		MaxNodes       int       `json:"max_nodes"`
		CoresPerNode   int       `json:"cores_per_node"`
		CoresPerDomain int       `json:"cores_per_domain"`
		BaseClockGHz   float64   `json:"base_clock_ghz"`
		DVFSLadderGHz  []float64 `json:"dvfs_ladder_ghz"`
	}
	var out []clusterInfo
	for _, name := range machine.Names() {
		cs, err := machine.Get(name)
		if err != nil {
			continue
		}
		info := clusterInfo{
			Name:           cs.Name,
			CPU:            cs.CPU.Name,
			MaxNodes:       cs.MaxNodes,
			CoresPerNode:   cs.CPU.CoresPerNode(),
			CoresPerDomain: cs.CPU.CoresPerDomain(),
			BaseClockGHz:   cs.CPU.BaseClockHz / 1e9,
		}
		for _, hz := range cs.CPU.DVFS.Ladder() {
			info.DVFSLadderGHz = append(info.DVFSLadderGHz, hz/1e9)
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}
