package campaign

import (
	"context"
	"sync"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// TestWithSimWorkersEligibility pins which jobs a worker grant may touch:
// multi-node jobs on fabrics with a positive latency floor that did not
// pin their own worker count — and nothing else.
func TestWithSimWorkersEligibility(t *testing.T) {
	zeroLat := netsim.HDR100()
	zeroLat.InterNodeLatency = 0
	pinned := counterJob(100)
	pinned.SimWorkers = 2
	cases := []struct {
		name  string
		rs    spec.RunSpec
		grant int
		want  int
	}{
		{"multi-node granted", counterJob(100), 8, 8},
		{"single node ineligible", counterJob(72), 8, 0},
		{"grant of one is a no-op", counterJob(100), 1, 0},
		{"disabled grant", counterJob(100), 0, 0},
		{"pinned worker count kept", pinned, 8, 2},
		{"nil cluster ineligible", spec.RunSpec{Benchmark: "campaign-counter", Ranks: 100}, 8, 0},
	}
	for _, c := range cases {
		if got := withSimWorkers(c.rs, c.grant).SimWorkers; got != c.want {
			t.Errorf("%s: SimWorkers = %d, want %d", c.name, got, c.want)
		}
	}
	zl := counterJob(100)
	zl.Net = zeroLat
	if got := withSimWorkers(zl, 8).SimWorkers; got != 0 {
		t.Errorf("zero-latency fabric granted %d workers; the partitioned engine cannot run it", got)
	}
}

// TestSchedulerGrantPolicy drives the scheduler with an intercepting
// runner and checks the grant policy end to end: an otherwise-idle pool
// donates its full worker budget to a lone multi-node job, a job that
// starts while another is running gets no grant, and single-node jobs
// are never granted workers.
func TestSchedulerGrantPolicy(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{} // ranks -> granted SimWorkers
	s := NewScheduler(4, nil)
	s.SetRunner(func(rs spec.RunSpec) (spec.RunResult, error) {
		mu.Lock()
		seen[rs.Ranks] = rs.SimWorkers
		mu.Unlock()
		return spec.Run(rs)
	})
	defer s.Close()
	wait := func(rs spec.RunSpec) int {
		t.Helper()
		if out := s.Submit(context.Background(), rs).Wait(context.Background()); out.Err != nil {
			t.Fatalf("%d ranks: %v", rs.Ranks, out.Err)
		}
		mu.Lock()
		defer mu.Unlock()
		return seen[rs.Ranks]
	}
	if got := wait(counterJob(100)); got != 4 { // two ClusterA nodes
		t.Errorf("idle auto grant gave %d workers, want the pool budget 4", got)
	}
	if got := wait(counterJob(4)); got != 0 {
		t.Errorf("single-node job granted %d workers", got)
	}

	// Pin one job in the Running state: the next multi-node job shares
	// the pool and must run serially.
	schedGate = make(chan struct{})
	schedStarted.Store(0)
	blocked := s.Submit(context.Background(), blockJob(1))
	waitStarted(t, 1)
	if got := wait(counterJob(101)); got != 0 {
		t.Errorf("job beside a running one granted %d workers", got)
	}
	close(schedGate)
	if out := blocked.Wait(context.Background()); out.Err != nil {
		t.Fatal(out.Err)
	}
}

// TestGrantedJobSharesSerialKey confirms a granted execution memoizes
// under the job's serial identity: a follow-up serial submission of the
// same spec must hit the memo, not re-simulate.
func TestGrantedJobSharesSerialKey(t *testing.T) {
	s := NewScheduler(4, nil)
	defer s.Close()
	before := simCount.Load()
	rs := counterJob(100)
	if out := s.Submit(context.Background(), rs).Wait(context.Background()); out.Err != nil {
		t.Fatal(out.Err)
	}
	ran := simCount.Load() - before
	if ran != 100 {
		t.Fatalf("first run simulated %d rank bodies, want 100", ran)
	}
	if out := s.Submit(context.Background(), rs).Wait(context.Background()); out.Err != nil {
		t.Fatal(out.Err)
	}
	if again := simCount.Load() - before; again != ran {
		t.Errorf("resubmission re-simulated (%d total rank bodies, want %d): granted run missed the memo", again, ran)
	}
}
