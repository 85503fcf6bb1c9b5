package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until at most limit goroutines are alive, forcing
// a collection each round so pool eviction and cleanups can run, and
// fails the test if the count is still higher at the deadline.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive, want at most %d", n, limit)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestFailedRunsLeaveNoGoroutines runs many failing jobs on pooled
// environments and checks that releasing them stops every process
// coroutine: a deadlock leaves all processes parked, a panic leaves
// every process but the panicking one parked.
func TestFailedRunsLeaveNoGoroutines(t *testing.T) {
	const runs, procs = 50, 10
	cases := map[string]func(e *Env){
		"deadlock": func(e *Env) {
			for i := 0; i < procs; i++ {
				e.Spawn("stuck", func(p *Proc) { p.Park("forever") })
			}
		},
		"panic": func(e *Env) {
			for i := 0; i < procs-1; i++ {
				e.Spawn("stuck", func(p *Proc) { p.Park("forever") })
			}
			e.Spawn("bomb", func(p *Proc) {
				p.Wait(1)
				panic("boom")
			})
		},
	}
	for name, spawn := range cases {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < runs; i++ {
				e := AcquireEnv()
				spawn(e)
				if err := e.Run(); err == nil {
					t.Fatal("failing run reported no error")
				}
				ReleaseEnv(e)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestPoolEvictionLeaksNoGoroutines fills the pool with environments
// whose finished processes keep their coroutines for reuse, then lets
// the garbage collector evict them: the cleanup on each pool entry must
// stop those coroutines.
func TestPoolEvictionLeaksNoGoroutines(t *testing.T) {
	const envs, procs = 8, 10
	base := runtime.NumGoroutine()
	held := make([]*Env, envs)
	for i := range held {
		e := AcquireEnv()
		for j := 0; j < procs; j++ {
			e.Spawn("p", func(p *Proc) { p.Wait(1) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		held[i] = e
	}
	for _, e := range held {
		ReleaseEnv(e)
	}
	held = nil
	waitGoroutines(t, base)
}

// TestStoppedProcessUnwinds checks that stopping a blocked process runs
// its deferred calls and is not recorded as a failure.
func TestStoppedProcessUnwinds(t *testing.T) {
	e := AcquireEnv()
	unwound := false
	e.Spawn("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park("forever")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	e.stopProcs()
	if !unwound {
		t.Fatal("stopped process did not unwind")
	}
	if e.failure != nil {
		t.Fatalf("stop recorded a failure: %v", e.failure)
	}
}
