package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/service"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/surrogate"
)

// serve-jobs sizing. Each pass is one round: set up a fresh service over
// a store pre-warmed with a seeded half of the universe, send
// roundRequests requests from a closed loop of nproc clients, then replay
// the same stream against the now-warm service.
const (
	roundRequests = 3000
	// fastShare of requests ask for mode=fast.
	fastShare = 0.3
	// zipfS and zipfV shape key popularity, P(k) ~ (zipfV+k)^-zipfS: the
	// hottest key takes ~19% of a round, ~340 of the 441 keys are asked
	// for, and ~5% of requests need a fresh simulation.
	zipfS = 1.1
	zipfV = 1
	// pollInterval is the clients' fixed wait between status polls.
	pollInterval = time.Millisecond
)

// universe is every job serve-jobs can request: the nine kernels on both
// paper clusters at every node-level rank count of the paper's sweeps,
// tiny class, one simulated step.
func universe() []spec.RunSpec {
	var jobs []spec.RunSpec
	for _, name := range []string{"ClusterA", "ClusterB"} {
		cs := machine.MustGet(name)
		for _, b := range bench.Names() {
			for _, p := range spec.NodePoints(cs) {
				jobs = append(jobs, spec.RunSpec{
					Benchmark: b, Class: bench.Tiny, Cluster: cs, Ranks: p,
					Options: bench.Options{SimSteps: 1},
				})
			}
		}
	}
	return jobs
}

// request is one entry of the request stream: a universe index and mode.
type request struct {
	job  int
	fast bool
}

// requestStream draws n requests: keys by a seeded Zipf law over a seeded
// popularity order of the universe, fastShare of them in fast mode.
func requestStream(rng *rand.Rand, n, size int) []request {
	order := rng.Perm(size)
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(size-1))
	out := make([]request, n)
	for i := range out {
		out[i] = request{job: order[z.Uint64()], fast: rng.Float64() < fastShare}
	}
	return out
}

// jobStatus is the part of the service's job status the clients read.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Usage machine.Usage `json:"usage"`
	} `json:"result"`
	Surrogate *struct {
		Bound float64 `json:"bound"`
	} `json:"surrogate"`
}

// outcome is one request as a client saw it.
type outcome struct {
	lat      time.Duration // POST sent until the job read done
	submitMs float64
	statusMs []float64
	polls    int
	err      string // empty when the answer checked out
}

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

func (c *client) call(method, path string, body []byte, want int, name, key string, parent int64) (jobStatus, float64, error) {
	id := c.tr.begin(name, key, parent)
	defer c.tr.end(id)
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return jobStatus{}, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return jobStatus{}, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return jobStatus{}, ms, err
	}
	if resp.StatusCode != want {
		return jobStatus{}, ms, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return jobStatus{}, ms, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return st, ms, nil
}

// do submits one job, polls until it resolves and checks the answer.
func (c *client) do(rs spec.RunSpec, fast bool, refs map[string]jobRef) outcome {
	mode := "exact"
	if fast {
		mode = "fast"
	}
	body, _ := json.Marshal(map[string]any{
		"benchmark": rs.Benchmark, "cluster": rs.Cluster.Name, "class": rs.Class.String(),
		"ranks": rs.Ranks, "sim_steps": rs.Options.SimSteps, "mode": mode,
	})
	var key string
	var root int64
	if c.tr != nil {
		key = campaign.Key(rs)
		root = c.tr.begin("request", key, 0)
		c.tr.own(key, root)
		defer c.tr.end(root)
	}
	var o outcome
	t0 := time.Now()
	st, ms, err := c.call("POST", "/api/v1/jobs", body, http.StatusAccepted, "http.submit", key, root)
	o.submitMs = ms
	for err == nil && (st.State == "queued" || st.State == "running") {
		time.Sleep(pollInterval)
		st, ms, err = c.call("GET", "/api/v1/jobs/"+st.ID, nil, http.StatusOK, "http.status", key, root)
		o.statusMs = append(o.statusMs, ms)
		o.polls++
	}
	o.lat = time.Since(t0)
	if err == nil && st.State == "done" && st.Result == nil {
		// Done in the POST reply, which carries no result: fetch it once.
		st, ms, err = c.call("GET", "/api/v1/jobs/"+st.ID, nil, http.StatusOK, "http.status", key, root)
		o.statusMs = append(o.statusMs, ms)
	}
	switch ref, ok := refs[jobName(rs)]; {
	case err != nil:
		o.err = err.Error()
	case st.State != "done" || st.Result == nil:
		o.err = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Surrogate != nil:
		if b := st.Surrogate.Bound; !(b >= 0 && b <= surrogate.DefaultMaxBound) {
			o.err = fmt.Sprintf("%s: surrogate bound %g outside [0, %g]", jobName(rs), b, surrogate.DefaultMaxBound)
		}
	case !ok:
		o.err = jobName(rs) + ": no reference"
	case !ref.matches(refOf(st.Result.Usage)):
		o.err = fmt.Sprintf("%s: got %+v, reference %+v", jobName(rs), refOf(st.Result.Usage), ref)
	}
	return o
}

// closedLoop sends reqs from n clients, each sending its next request
// only after the previous one resolved, and returns the outcomes in
// stream order.
func closedLoop(clients []*client, jobs []spec.RunSpec, reqs []request, refs map[string]jobRef) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(reqs)); k = next.Add(1) - 1 {
				out[k] = c.do(jobs[reqs[k].job], reqs[k].fast, refs)
			}
		}()
	}
	wg.Wait()
	return out
}

// server is one round's service stack.
type server struct {
	sched  *campaign.Scheduler
	index  *surrogate.Index
	store  *timedStore
	runner *timedRunner
	hs     *httptest.Server
	fitS   float64
}

func (s *server) close() {
	s.hs.Close()
	s.sched.Close()
}

// prewarmed picks half of the universe for the store: in each (kernel,
// cluster) family every other rank count, starting at a seeded first or
// second one. The surrogate then interpolates between stored points, and
// every seed leaves a similar mix of cheap and costly jobs to simulate.
func prewarmed(rng *rand.Rand, jobs []spec.RunSpec) []spec.RunSpec {
	var out []spec.RunSpec
	var parity, idx int
	for k, rs := range jobs {
		if k == 0 || rs.Benchmark != jobs[k-1].Benchmark || rs.Cluster != jobs[k-1].Cluster {
			parity, idx = rng.Intn(2), 0
		}
		if idx%2 == parity {
			out = append(out, rs)
		}
		idx++
	}
	return out
}

// newServer pre-warms a fresh store with a seeded half of the universe,
// fits the surrogate from it, and serves a fresh scheduler over it.
func newServer(nproc int, dir string, jobs []spec.RunSpec, rng *rand.Rand, tr *tracer) (*server, error) {
	ds, err := campaign.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	pre := campaign.NewWithStore(nproc, ds)
	outs := pre.Run(prewarmed(rng, jobs))
	pre.Scheduler().Close()
	for _, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("pre-warming the store: %w", o.Err)
		}
	}
	idx := surrogate.NewIndex()
	t0 := time.Now()
	if _, err := idx.FitStore(ds); err != nil {
		return nil, fmt.Errorf("fitting the surrogate: %w", err)
	}
	s := &server{index: idx, fitS: time.Since(t0).Seconds(),
		store: &timedStore{inner: ds, tr: tr}, runner: &timedRunner{tr: tr}}
	s.sched = campaign.NewScheduler(nproc, s.store)
	s.sched.SetRunner(s.runner.run)
	s.hs = httptest.NewServer(service.New(s.sched, service.Options{Surrogate: idx}).Handler())
	return s, nil
}

func runServeJobs(r *run) error {
	refs, err := loadJobRefs(r.cfg.refDir)
	if err != nil {
		return err
	}
	jobs, n := universe(), roundRequests
	if r.cfg.size > 0 {
		jobs, n = jobs[:r.cfg.size], r.cfg.size
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	return r.passes(func(i int, tr *tracer) error {
		t0 := time.Now()
		srv, err := newServer(r.cfg.nproc, filepath.Join(r.cfg.workDir, fmt.Sprintf("serve-%d", i)), jobs, rng, tr)
		if err != nil {
			return err
		}
		defer srv.close()
		r.setup = append(r.setup, time.Since(t0).Seconds())

		clients := make([]*client, r.cfg.nproc)
		for k := range clients {
			tp := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			clients[k] = &client{base: srv.hs.URL, http: &http.Client{Transport: tp}, tr: tr}
		}
		reqs := requestStream(rng, n, len(jobs))
		hits0, refused0, noModel0, _ := srv.index.Counters()
		stop, err := r.profile(i, tr)
		if err != nil {
			return err
		}
		mem0, ps0, cpu0 := readMem(), psim.Snapshot(), cpuSeconds()
		t0 = time.Now()
		outs := closedLoop(clients, jobs, reqs, refs)
		wall := time.Since(t0).Seconds()
		r.wall = append(r.wall, wall)
		r.cpu = append(r.cpu, cpuSeconds()-cpu0)
		r.jobs += len(reqs)
		mem1, ps1 := readMem(), psim.Snapshot()
		if err := stop(); err != nil {
			return err
		}
		hits1, refused1, noModel1, _ := srv.index.Counters()
		st := srv.sched.Stats()
		r.tally(outs, true)

		if i == 1 && tr != nil {
			l := r.layers
			campaignLayers(l, st)
			runnerLayers(l, srv.runner, wall, r.cfg.nproc)
			storeLayers(l, srv.store)
			psimLayers(l, ps0, ps1, srv.runner)
			memLayers(l, mem0, mem1)
			var submit, status []float64
			polls, fast := 0, 0
			for k, o := range outs {
				submit = append(submit, o.submitMs)
				status = append(status, o.statusMs...)
				polls += o.polls
				if reqs[k].fast {
					fast++
				}
			}
			l["service.submit_ms_p50"] = pct(submit, 50)
			l["service.submit_ms_p99"] = pct(submit, 99)
			l["service.status_ms_p50"] = pct(status, 50)
			l["service.status_ms_p99"] = pct(status, 99)
			l["service.polls_per_job"] = ratio(float64(polls), float64(len(outs)))
			models, _ := srv.index.Models()
			l["surrogate.fit_s"] = srv.fitS
			l["surrogate.models"] = float64(models)
			l["surrogate.hits"] = float64(hits1 - hits0)
			l["surrogate.refused"] = float64(refused1 - refused0)
			l["surrogate.no_model"] = float64(noModel1 - noModel0)
			l["surrogate.hit_ratio"] = ratio(float64(hits1-hits0), float64(fast))
		}
		// Warm: replay the stream against the service that now holds it.
		for _, c := range clients {
			c.tr = nil
		}
		t0 = time.Now()
		replay := closedLoop(clients, jobs, reqs, refs)
		r.warm = append(r.warm, time.Since(t0).Seconds())
		r.tally(replay, false)

		return nil
	})
}

// tally counts requests as operations; measured ones also give latencies.
func (r *run) tally(outs []outcome, measured bool) {
	for _, o := range outs {
		r.attempted++
		if o.err != "" {
			r.fail("%s", o.err)
		}
		if measured {
			r.lat = append(r.lat, float64(o.lat)/1e6)
		}
	}
}
