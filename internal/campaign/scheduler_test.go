package campaign

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// Gate coordination for the scheduler tests. The sched-block kernel
// blocks its rank body on schedGate, so tests can pin a job in the
// Running state (occupying a worker) while they probe queue behaviour;
// sched-order records the SimSteps tag of each execution, exposing the
// order the queue released jobs in.
var (
	schedGate    chan struct{}
	schedStarted atomic.Int64

	schedOrderMu sync.Mutex
	schedOrder   []int
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:   92,
		Name: "sched-block",
		Run: func(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
			schedStarted.Add(1)
			<-schedGate
			r.Compute(machine.Phase{Name: "blocked", FlopsSIMD: 1e6, BytesMem: 1e4})
			rep := bench.RunReport{StepsModeled: 1, StepsSimulated: 1}
			if r.ID() == 0 {
				rep.Checks = []bench.Check{{Name: "synthetic", Value: 0, OK: true}}
			}
			return rep, nil
		},
	})
	bench.Register(&bench.Benchmark{
		ID:   93,
		Name: "sched-order",
		Run: func(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
			schedOrderMu.Lock()
			schedOrder = append(schedOrder, o.SimSteps)
			schedOrderMu.Unlock()
			r.Compute(machine.Phase{Name: "ordered", FlopsSIMD: 1e6, BytesMem: 1e4})
			rep := bench.RunReport{StepsModeled: 1, StepsSimulated: 1}
			if r.ID() == 0 {
				rep.Checks = []bench.Check{{Name: "synthetic", Value: 0, OK: true}}
			}
			return rep, nil
		},
	})
}

// blockJob is a sched-block job; the tag keeps keys distinct.
func blockJob(tag int) spec.RunSpec {
	return spec.RunSpec{
		Benchmark: "sched-block", Class: bench.Tiny,
		Cluster: machine.MustGet("ClusterA"), Ranks: 1,
		Options: bench.Options{SimSteps: tag},
	}
}

// waitStarted blocks until n sched-block executions have begun.
func waitStarted(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for schedStarted.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("gated jobs never started (%d of %d)", schedStarted.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrossRequestCoalescing is the acceptance test of the asynchronous
// scheduler: two concurrent submissions of an identical job — as if from
// two HTTP requests — perform exactly one simulation, both waiters
// receive the same result, and Stats shows one miss plus one coalesced
// hit.
func TestCrossRequestCoalescing(t *testing.T) {
	schedGate = make(chan struct{})
	schedStarted.Store(0)
	s := NewScheduler(2, nil)
	defer s.Close()

	job := blockJob(1)
	t1 := s.Submit(context.Background(), job)
	waitStarted(t, 1) // first submission is mid-simulation
	t2 := s.Submit(context.Background(), job)

	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("stats before release = %+v, want exactly one coalesced hit", st)
	}
	close(schedGate)
	o1 := t1.Wait(context.Background())
	o2 := t2.Wait(context.Background())
	if o1.Err != nil || o2.Err != nil {
		t.Fatalf("coalesced jobs failed: %v / %v", o1.Err, o2.Err)
	}
	if !reflect.DeepEqual(o1.Result.Usage, o2.Result.Usage) {
		t.Error("coalesced submissions returned different results")
	}
	if got := schedStarted.Load(); got != 1 {
		t.Errorf("%d simulations ran, want exactly 1", got)
	}
	st := s.Stats()
	if st.Jobs != 2 || st.Misses != 1 || st.Hits != 1 || st.Coalesced != 1 {
		t.Errorf("stats = %+v, want {Jobs:2 Misses:1 Hits:1 Coalesced:1}", st)
	}
}

// TestCancelQueuedJob pins a 1-worker scheduler with a gated job, queues
// a second job behind it, and cancels the second submission's context:
// the waiter must unblock with the context error, the job must be
// dropped without ever simulating, and a later resubmission must run it
// fresh.
func TestCancelQueuedJob(t *testing.T) {
	schedGate = make(chan struct{})
	schedStarted.Store(0)
	s := NewScheduler(1, nil)
	defer s.Close()

	front := s.Submit(context.Background(), blockJob(1))
	waitStarted(t, 1) // the only worker is pinned inside job 1

	ctx, cancel := context.WithCancel(context.Background())
	queued := s.Submit(ctx, blockJob(2))
	if got := queued.State(); got != Queued {
		t.Fatalf("second job state = %v, want Queued behind the pinned worker", got)
	}
	cancel()
	out := queued.Wait(context.Background())
	if !errors.Is(out.Err, ErrCancelled) && !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("cancelled job resolved with %v, want a cancellation error", out.Err)
	}
	if got := queued.State(); got != Cancelled {
		t.Errorf("cancelled job state = %v, want Cancelled", got)
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Errorf("stats = %+v, want Cancelled:1", st)
	}

	close(schedGate)
	if o := front.Wait(context.Background()); o.Err != nil {
		t.Fatalf("front job failed: %v", o.Err)
	}
	// The dropped job left no memo entry: resubmitting simulates fresh.
	before := schedStarted.Load()
	if o := s.Submit(context.Background(), blockJob(2)).Wait(context.Background()); o.Err != nil {
		t.Fatalf("resubmitted job failed: %v", o.Err)
	}
	if schedStarted.Load() != before+1 {
		t.Error("resubmitted job did not simulate fresh after cancellation")
	}
}

// TestCancelOneOfTwoWaiters cancels one of two coalesced submissions of
// a queued job: the job must survive and deliver to the remaining
// waiter.
func TestCancelOneOfTwoWaiters(t *testing.T) {
	schedGate = make(chan struct{})
	schedStarted.Store(0)
	s := NewScheduler(1, nil)
	defer s.Close()

	front := s.Submit(context.Background(), blockJob(1))
	waitStarted(t, 1)

	ctx, cancel := context.WithCancel(context.Background())
	first := s.Submit(ctx, blockJob(2))
	second := s.Submit(context.Background(), blockJob(2))
	cancel()
	// The released claim must not drop the job while `second` still
	// wants it: refs fall 2 -> 1, whenever the ctx watcher runs.
	_ = first
	close(schedGate)
	if o := front.Wait(context.Background()); o.Err != nil {
		t.Fatalf("front job failed: %v", o.Err)
	}
	if o := second.Wait(context.Background()); o.Err != nil {
		t.Fatalf("surviving waiter failed: %v", o.Err)
	}
	if st := s.Stats(); st.Cancelled != 0 {
		t.Errorf("stats = %+v, want no cancelled jobs (one claim remained)", st)
	}
}

// TestPriorityOrdersQueue pins the single worker, queues two default-
// priority jobs and one high-priority job, and checks the high-priority
// job runs first — with FIFO order preserved among equal priorities.
func TestPriorityOrdersQueue(t *testing.T) {
	schedGate = make(chan struct{})
	schedStarted.Store(0)
	schedOrderMu.Lock()
	schedOrder = nil
	schedOrderMu.Unlock()
	s := NewScheduler(1, nil)
	defer s.Close()

	orderJob := func(tag int) spec.RunSpec {
		return spec.RunSpec{
			Benchmark: "sched-order", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 1,
			Options: bench.Options{SimSteps: tag},
		}
	}
	front := s.Submit(context.Background(), blockJob(1))
	waitStarted(t, 1)

	tickets := []*Ticket{
		s.Submit(context.Background(), orderJob(10)),
		s.Submit(context.Background(), orderJob(11)),
		s.SubmitPriority(context.Background(), orderJob(99), 5),
	}
	close(schedGate)
	for _, tk := range tickets {
		if o := tk.Wait(context.Background()); o.Err != nil {
			t.Fatalf("job failed: %v", o.Err)
		}
	}
	if o := front.Wait(context.Background()); o.Err != nil {
		t.Fatalf("front job failed: %v", o.Err)
	}
	schedOrderMu.Lock()
	got := append([]int(nil), schedOrder...)
	schedOrderMu.Unlock()
	want := []int{99, 10, 11}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("execution order = %v, want %v (priority first, then FIFO)", got, want)
	}
}

// TestCloseDropsQueuedUnblocksWaiters closes a scheduler with one job
// running and one queued: the queued waiter unblocks with ErrClosed, the
// running job completes and delivers, and submissions after Close are
// rejected without deadlocking.
func TestCloseDropsQueuedUnblocksWaiters(t *testing.T) {
	schedGate = make(chan struct{})
	schedStarted.Store(0)
	s := NewScheduler(1, nil)

	front := s.Submit(context.Background(), blockJob(1))
	waitStarted(t, 1)
	queued := s.Submit(context.Background(), blockJob(2))

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// The queued job resolves immediately, while the gate still blocks
	// the running one.
	if o := queued.Wait(context.Background()); !errors.Is(o.Err, ErrClosed) {
		t.Fatalf("queued job resolved with %v, want ErrClosed", o.Err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a simulation was still running")
	default:
	}
	close(schedGate)
	<-closed
	if o := front.Wait(context.Background()); o.Err != nil {
		t.Errorf("running job lost by shutdown: %v", o.Err)
	}
	if o := s.Submit(context.Background(), blockJob(3)).Wait(context.Background()); !errors.Is(o.Err, ErrClosed) {
		t.Errorf("post-Close submission resolved with %v, want ErrClosed", o.Err)
	}
}

// TestMemoBoundEvictsToStore pins the daemon memory bound: a
// store-backed scheduler holds at most memoCap completed entries in
// process, and an evicted job's resubmission is served from the store
// (a StoreHit), never re-simulated.
func TestMemoBoundEvictsToStore(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(2, st)
	s.memoCap = 2
	defer s.Close()

	jobs := []spec.RunSpec{counterJob(1), counterJob(2), counterJob(3), counterJob(4)}
	for _, rs := range jobs {
		if o := s.Submit(context.Background(), rs).Wait(context.Background()); o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	s.mu.Lock()
	cached := len(s.cache)
	s.mu.Unlock()
	if cached > 2 {
		t.Errorf("memo holds %d entries, want <= 2 (memoCap)", cached)
	}

	// Resubmitting an evicted job costs a store read, not a simulation.
	before := s.Stats()
	if o := s.Submit(context.Background(), jobs[0]).Wait(context.Background()); o.Err != nil {
		t.Fatal(o.Err)
	}
	after := s.Stats()
	if after.Misses != before.Misses {
		t.Errorf("evicted job re-simulated (misses %d -> %d), want a store hit", before.Misses, after.Misses)
	}
	if after.StoreHits != before.StoreHits+1 {
		t.Errorf("store hits %d -> %d, want +1 for the evicted job", before.StoreHits, after.StoreHits)
	}
}

// TestCloseDuringSubmitCancelStorm races Scheduler.Close against a
// storm of concurrent Submit/Cancel calls. The contract under -race:
// every ticket resolves (its Done channel closes — no leaked waiter, no
// deadlock), Close returns, and submissions that land after the close
// resolve promptly with ErrClosed instead of hanging on a queue nobody
// drains. Jobs use the real counter kernel so tickets can resolve any
// of the four ways (result, coalesced hit, cancelled, closed).
func TestCloseDuringSubmitCancelStorm(t *testing.T) {
	s := NewScheduler(2, nil)
	const goroutines = 8
	const submitsPer = 30

	jobs := make([]spec.RunSpec, 4)
	for i := range jobs {
		jobs[i] = spec.RunSpec{
			Benchmark: "campaign-counter", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 1,
			Options: bench.Options{SimSteps: 1 + i},
		}
	}

	var mu sync.Mutex
	var tickets []*Ticket
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < submitsPer; i++ {
				tk := s.SubmitPriority(context.Background(), jobs[r.Intn(len(jobs))], r.Intn(3))
				if r.Intn(2) == 0 {
					tk.Cancel()
				}
				mu.Lock()
				tickets = append(tickets, tk)
				mu.Unlock()
			}
		}(int64(g) + 1)
	}
	closed := make(chan struct{})
	go func() {
		<-start
		s.Close() // races the storm: some submissions land before, some after
		close(closed)
	}()
	close(start)
	wg.Wait()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked against the Submit/Cancel storm")
	}

	deadline := time.After(30 * time.Second)
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		case <-deadline:
			t.Fatalf("ticket %d leaked: still unresolved after Close (state %v)", i, tk.State())
		}
		o, ok := tk.Outcome()
		if !ok {
			t.Fatalf("ticket %d: Done closed without an outcome", i)
		}
		if o.Err != nil && !errors.Is(o.Err, ErrCancelled) && !errors.Is(o.Err, ErrClosed) {
			t.Errorf("ticket %d resolved with unexpected error %v", i, o.Err)
		}
	}
	// The scheduler stays rejecting — and non-blocking — after the storm.
	if o := s.Submit(context.Background(), jobs[0]).Wait(context.Background()); !errors.Is(o.Err, ErrClosed) {
		t.Errorf("post-storm submission resolved with %v, want ErrClosed", o.Err)
	}
}

// TestSetRunnerRoutesExecution checks SetRunner redirects job execution
// away from spec.Run — the seam tests and benchmarks use to substitute
// or time the executor — while coalescing and memoization still apply
// in front of it: one runner call per unique key, and the runner's
// result (not a simulation) is what waiters receive.
func TestSetRunnerRoutesExecution(t *testing.T) {
	s := NewScheduler(2, nil)
	defer s.Close()

	var calls atomic.Int64
	s.SetRunner(func(rs spec.RunSpec) (spec.RunResult, error) {
		calls.Add(1)
		return spec.RunResult{
			Spec:   rs,
			Report: bench.RunReport{StepsModeled: 7, StepsSimulated: 7},
			Trace:  trace.FromSums(make([][]float64, rs.Ranks)),
		}, nil
	})

	job := blockJob(401) // sched-block would hang if spec.Run were used
	t1 := s.Submit(context.Background(), job)
	t2 := s.Submit(context.Background(), job)
	o1, o2 := t1.Wait(context.Background()), t2.Wait(context.Background())
	if o1.Err != nil || o2.Err != nil {
		t.Fatalf("runner-backed jobs failed: %v / %v", o1.Err, o2.Err)
	}
	if o1.Result.Report.StepsModeled != 7 {
		t.Errorf("waiter got StepsModeled=%d, want the runner's synthetic 7", o1.Result.Report.StepsModeled)
	}
	if o := s.Submit(context.Background(), blockJob(402)).Wait(context.Background()); o.Err != nil {
		t.Fatalf("second unique job failed: %v", o.Err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("runner called %d times, want 2 (one per unique key; duplicates coalesce)", got)
	}
}

// TestSchedulerStress hammers one scheduler from many goroutines —
// submitting a small key space of real jobs, waiting with sometimes-
// cancelled contexts, polling states — then shuts it down. Run under
// -race in CI, this pins the thread-safety of the queue, the coalescing
// map, and the resolve-once discipline; every ticket must resolve
// (result, job error, cancellation, or shutdown), never hang.
func TestSchedulerStress(t *testing.T) {
	s := NewScheduler(4, nil)
	rng := rand.New(rand.NewSource(1))
	const goroutines = 8
	const submitsPer = 40

	jobs := make([]spec.RunSpec, 6)
	for i := range jobs {
		jobs[i] = spec.RunSpec{
			Benchmark: "campaign-counter", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 1 + i%3,
			Options: bench.Options{SimSteps: 1 + i},
		}
	}
	seeds := make([]int64, goroutines)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < submitsPer; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				tk := s.SubmitPriority(ctx, jobs[r.Intn(len(jobs))], r.Intn(3))
				switch r.Intn(4) {
				case 0: // abandon immediately
					cancel()
					tk.Wait(context.Background())
				case 1: // poll, then wait
					tk.State()
					tk.Outcome()
					tk.Wait(context.Background())
					cancel()
				default:
					o := tk.Wait(ctx)
					cancel()
					if o.Err != nil && !errors.Is(o.Err, ErrCancelled) &&
						!errors.Is(o.Err, context.Canceled) && !errors.Is(o.Err, ErrClosed) {
						t.Errorf("unexpected job error: %v", o.Err)
					}
				}
			}
		}(seeds[g])
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	if st.Jobs != goroutines*submitsPer {
		t.Errorf("accounted %d submissions, want %d", st.Jobs, goroutines*submitsPer)
	}
	if st.Hits+st.Misses+st.Cancelled+st.Coalesced == 0 {
		t.Error("stress run recorded no cache activity at all")
	}
}
