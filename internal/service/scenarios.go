package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/scenario"
)

// syncBuffer is a mutex-guarded output buffer: the renderer goroutine
// appends plots/tables per sweep while status requests read whatever
// has landed so far.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

// Bytes returns a copy of everything rendered so far.
func (sb *syncBuffer) Bytes() []byte {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return append([]byte(nil), sb.b.Bytes()...)
}

// Len returns the rendered size without copying.
func (sb *syncBuffer) Len() int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Len()
}

// scenarioRun is one HTTP-submitted scenario: the per-sweep tickets
// (progress tracking), the renderer goroutine's growing output, and the
// CSV artifact directory.
type scenarioRun struct {
	id     string
	name   string
	title  string
	mode   string
	cancel context.CancelFunc
	sweeps [][]*campaign.Ticket
	pinned []*campaign.Ticket
	buf    *syncBuffer
	artDir string
	// renderDone closes when the renderer goroutine exits; shutdown
	// waits on it before removing artDir, so a still-writing renderer
	// can never recreate a directory cleanup just deleted.
	renderDone chan struct{}

	mu     sync.Mutex
	state  string // running, done, failed
	errMsg string
}

// setState records the renderer's terminal state.
func (run *scenarioRun) setState(state, errMsg string) {
	run.mu.Lock()
	run.state, run.errMsg = state, errMsg
	run.mu.Unlock()
}

// snapshot reads the current state.
func (run *scenarioRun) snapshot() (state, errMsg string) {
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.state, run.errMsg
}

// sweepProgress is the wire form of one sweep's completion state.
type sweepProgress struct {
	Sweep     int `json:"sweep"`
	Total     int `json:"total"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// scenarioStatus is the wire form of one scenario run.
type scenarioStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	// Mode is the scenario's query tier ("exact" or "fast").
	Mode string `json:"mode"`
	// State is "running" until the renderer finished every sweep, then
	// "done" or "failed".
	State  string          `json:"state"`
	Error  string          `json:"error,omitempty"`
	Sweeps []sweepProgress `json:"sweeps"`
	// PinnedJobs counts the scenario's pinned single jobs (progress is
	// folded into the last sweep of the renderer's output).
	PinnedJobs     int      `json:"pinned_jobs"`
	PinnedDone     int      `json:"pinned_done"`
	OutputBytes    int      `json:"output_bytes"`
	ArtifactsReady []string `json:"artifacts,omitempty"`
}

// progress tallies one ticket group.
func progress(idx int, tickets []*campaign.Ticket) sweepProgress {
	p := sweepProgress{Sweep: idx + 1, Total: len(tickets)}
	for _, t := range tickets {
		out, resolved := t.Outcome()
		if !resolved {
			continue
		}
		switch {
		case out.Err == nil:
			p.Done++
		case t.State() == campaign.Cancelled:
			p.Cancelled++
		default:
			p.Failed++
		}
	}
	return p
}

// status snapshots the run, listing finished CSV artifacts.
func (run *scenarioRun) status() scenarioStatus {
	state, errMsg := run.snapshot()
	st := scenarioStatus{
		ID: run.id, Name: run.name, Title: run.title, Mode: run.mode,
		State: state, Error: errMsg,
		PinnedJobs:  len(run.pinned),
		OutputBytes: run.buf.Len(),
	}
	for i, tickets := range run.sweeps {
		st.Sweeps = append(st.Sweeps, progress(i, tickets))
	}
	st.PinnedDone = progress(0, run.pinned).Done
	if entries, err := os.ReadDir(run.artDir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
				st.ArtifactsReady = append(st.ArtifactsReady, e.Name())
			}
		}
		sort.Strings(st.ArtifactsReady)
	}
	return st
}

// handleSubmitScenario accepts a scenario document (docs/SCENARIOS.md
// format, comments allowed), submits its whole expansion to the
// scheduler, and starts a renderer goroutine that draws each sweep as
// its results land. The response is immediate: poll the returned id.
func (s *Server) handleSubmitScenario(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, bodyStatus(err), "reading body: %v", err)
		return
	}
	s.mu.Lock()
	s.nextRun++
	id := fmt.Sprintf("s-%d", s.nextRun)
	s.mu.Unlock()

	sc, err := scenario.Parse(body, id)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	planner := s.planner()
	sweepBatches, pinnedBatch, err := planner.ExpandParts(sc)
	if err != nil {
		writeError(w, http.StatusBadRequest, "expanding scenario: %v", err)
		return
	}
	artDir, err := s.artifactDir(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "artifact directory: %v", err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	run := &scenarioRun{
		id: id, name: sc.Name, title: sc.Title, mode: sc.Mode.String(),
		cancel:     cancel,
		buf:        &syncBuffer{},
		artDir:     artDir,
		renderDone: make(chan struct{}),
		state:      "running",
	}
	// Submissions carry the scenario's query mode, so a "fast" study is
	// answered from the surrogate wherever its models are tight enough
	// and simulates only the refusals (the renderer's own engine requests
	// coalesce onto these tickets either way).
	for _, batch := range sweepBatches {
		tickets := make([]*campaign.Ticket, len(batch))
		for i, rs := range batch {
			tickets[i] = s.sched.SubmitMode(ctx, rs, 0, sc.Mode)
		}
		run.sweeps = append(run.sweeps, tickets)
	}
	for _, rs := range pinnedBatch {
		run.pinned = append(run.pinned, s.sched.SubmitMode(ctx, rs, 0, sc.Mode))
	}

	s.mu.Lock()
	s.runs[id] = run
	s.runOrder = append(s.runOrder, id)
	s.evictRunsLocked()
	s.mu.Unlock()

	// The renderer's engine requests coalesce onto the tickets above and
	// block per sweep, so output and CSV artifacts appear incrementally.
	// Render (not ExecuteCtx): the expansion is already submitted above,
	// and the renderer shares the run's context, so DELETE stops it at
	// the next sweep boundary.
	go func() {
		defer close(run.renderDone)
		if err := planner.Render(ctx, sc, run.buf, run.artDir); err != nil {
			run.setState("failed", err.Error())
			return
		}
		run.setState("done", "")
	}()

	writeJSON(w, http.StatusAccepted, run.status())
}

// artifactDir resolves the per-run CSV directory, creating it.
func (s *Server) artifactDir(id string) (string, error) {
	root := s.opts.ArtifactDir
	if root == "" {
		dir, err := os.MkdirTemp("", "spechpcd-"+id+"-")
		return dir, err
	}
	dir := filepath.Join(root, id)
	return dir, os.MkdirAll(dir, 0o755)
}

// run resolves a path id to its scenario run.
func (s *Server) run(r *http.Request) (*scenarioRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[r.PathValue("id")]
	return run, ok
}

// handleListScenarios lists every run in submit order.
func (s *Server) handleListScenarios(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runs := make([]*scenarioRun, 0, len(s.runOrder))
	for _, id := range s.runOrder {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	out := make([]scenarioStatus, len(runs))
	for i, run := range runs {
		out[i] = run.status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleScenarioStatus answers one run's per-sweep progress.
func (s *Server) handleScenarioStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, run.status())
}

// handleCancelScenario releases the run's claims: jobs still queued are
// dropped (unless another submission wants them), running simulations
// complete and memoize. The renderer goroutine then fails fast on the
// cancelled jobs.
func (s *Server) handleCancelScenario(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	run.cancel()
	for _, tickets := range run.sweeps {
		for _, t := range tickets {
			t.Cancel()
		}
	}
	for _, t := range run.pinned {
		t.Cancel()
	}
	writeJSON(w, http.StatusOK, run.status())
}

// handleScenarioOutput streams the rendered plots/tables as they exist
// right now: partial while the run is in flight (the X-Scenario-State
// header says which), complete once state is done.
func (s *Server) handleScenarioOutput(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	state, _ := run.snapshot()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Scenario-State", state)
	w.Write(run.buf.Bytes())
}

// handleScenarioArtifacts lists the run's finished CSV artifacts.
func (s *Server) handleScenarioArtifacts(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, run.status().ArtifactsReady)
}

// handleScenarioArtifact serves one CSV artifact by name.
func (s *Server) handleScenarioArtifact(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	name := r.PathValue("name")
	if name != filepath.Base(name) || !strings.HasSuffix(name, ".csv") {
		writeError(w, http.StatusBadRequest, "artifact name must be a plain .csv file name")
		return
	}
	data, err := os.ReadFile(filepath.Join(run.artDir, name))
	if err != nil {
		writeError(w, http.StatusNotFound, "no artifact %q in scenario %s", name, run.id)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(data)
}

// Close cancels every outstanding submission, waits for the scenario
// renderers to exit, and removes temp artifact directories the server
// created (runs under an explicit ArtifactDir are kept). The daemon
// calls this on graceful shutdown, before closing the scheduler: the
// cancellations drop the runs' queued jobs, so renderers blocked on
// them fail fast instead of riding out the whole queue.
func (s *Server) Close() {
	// Unready first: /readyz flips before any work is cancelled, so a
	// load balancer stops routing here while the drain proceeds.
	s.draining.Store(true)
	s.mu.Lock()
	runs := make([]*scenarioRun, 0, len(s.runs))
	for _, run := range s.runs {
		runs = append(runs, run)
	}
	jobs := make([]*jobSub, 0, len(s.jobs))
	for _, js := range s.jobs {
		jobs = append(jobs, js)
	}
	s.mu.Unlock()
	for _, js := range jobs {
		js.cancel()
	}
	for _, run := range runs {
		run.cancel()
	}
	for _, run := range runs {
		<-run.renderDone // renderers stop at the next engine wait
		if s.opts.ArtifactDir == "" && run.artDir != "" {
			os.RemoveAll(run.artDir)
		}
	}
}
