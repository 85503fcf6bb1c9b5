package psim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/sim"
)

const look = 1e-6 // lookahead used throughout; posts delay by >= this

// ping bounces a token between two partitions: each hop posts the next
// hop one lookahead ahead on the peer, recording the hop times.
type ping struct {
	g     *Engine
	a, b  int
	hops  int
	times []float64
	from  int
}

func (p *ping) hop(any) {
	dst := p.a
	if p.from == p.a {
		dst = p.b
	}
	p.times = append(p.times, p.g.NodeEnv(p.from).Now())
	if p.hops--; p.hops <= 0 {
		return
	}
	src := p.from
	p.from = dst
	p.g.Post(src, dst, p.g.NodeEnv(src).Now()+look, p.hop, nil)
}

// TestCrossPartitionPingPong bounces a token across the partition
// boundary and checks every hop lands exactly one lookahead after the
// previous one, at every worker count.
func TestCrossPartitionPingPong(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		g := Acquire(2, workers, look)
		p := &ping{g: g, a: 0, b: 1, hops: 5, from: 0}
		g.NodeEnv(0).AtArg(0, p.hop, nil)
		if err := g.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(p.times) != 5 {
			t.Fatalf("workers=%d: %d hops, want 5", workers, len(p.times))
		}
		for i, tm := range p.times {
			if want := float64(i) * look; tm != want {
				t.Errorf("workers=%d hop %d at %v, want %v", workers, i, tm, want)
			}
		}
		g.Release()
	}
}

// TestMergeOrderIsCanonical posts mail to one destination from several
// source partitions with colliding timestamps and checks delivery order
// is (time, source partition, submission order) regardless of worker
// count — the property that makes the destination's seq tiebreaks, and
// hence the whole simulation, independent of execution interleaving.
func TestMergeOrderIsCanonical(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		g := Acquire(4, workers, look)
		var got strings.Builder
		rec := func(a any) { fmt.Fprintf(&got, "%s@%v ", a.(string), g.NodeEnv(0).Now()) }
		// Sources 3, 2, 1 post at identical times; source order must win.
		for src := 3; src >= 1; src-- {
			src := src
			g.NodeEnv(src).AtArg(0, func(any) {
				t0 := g.NodeEnv(src).Now() + look
				g.Post(src, 0, t0, rec, fmt.Sprintf("s%d-first", src))
				g.Post(src, 0, t0, rec, fmt.Sprintf("s%d-second", src))
			}, nil)
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		g.Release()
		if want == "" {
			want = got.String()
			wantOrder := "s1-first@1e-06 s1-second@1e-06 s2-first@1e-06 s2-second@1e-06 s3-first@1e-06 s3-second@1e-06 "
			if want != wantOrder {
				t.Fatalf("merge order %q, want %q", want, wantOrder)
			}
		} else if got.String() != want {
			t.Errorf("workers=%d delivered %q, want %q", workers, got.String(), want)
		}
	}
}

// TestDeadlockDetected parks a process that nothing ever wakes and
// expects Run to fail once all queues drain.
func TestDeadlockDetected(t *testing.T) {
	g := Acquire(2, 2, look)
	g.NodeEnv(1).Spawn("stuck", func(p *sim.Proc) { p.Park("never woken") })
	if err := g.Run(); err == nil {
		t.Fatal("deadlocked run reported success")
	}
	g.Release()
}

// TestAcquireValidation pins the constructor contract: partitions and
// lookahead must be positive, and the worker count clamps to the
// partition count (extra workers could never have work).
func TestAcquireValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { Acquire(0, 1, look) },
		func() { Acquire(2, 1, 0) },
		func() { Acquire(2, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Acquire did not panic")
				}
			}()
			bad()
		}()
	}
	g := Acquire(2, 16, look)
	if g.workers != 2 {
		t.Errorf("workers clamped to %d, want 2", g.workers)
	}
	g.Release()
}

// boundOracle promises a fixed earliest-output time.
type boundOracle struct{ bound float64 }

func (o *boundOracle) EarliestOutputTime() float64 { return o.bound }

// TestAdaptiveWidensWindows drives two partitions whose processes wake
// repeatedly at sub-promise times without ever posting cross-partition
// mail before a known bound, and checks the engine executes the whole
// stretch in fewer, wider windows than the static floor while the same
// workload with no oracle registered stays at the floor.
func TestAdaptiveWidensWindows(t *testing.T) {
	const wakes = 20
	run := func(withOracle bool) Stats {
		g := Acquire(2, 2, look)
		defer g.Release()
		for i := 0; i < 2; i++ {
			i := i
			// Each partition promises nothing can leave before the last
			// wake; the wakes themselves are 10 lookaheads apart, so
			// floor-width windows need one per wake.
			if withOracle {
				g.NodeEnv(i).SetOutputOracle(&boundOracle{bound: wakes * 10 * look})
			}
			g.NodeEnv(i).Spawn("ticker", func(p *sim.Proc) {
				for k := 0; k < wakes; k++ {
					p.Wait(10 * look)
				}
				g.Post(i, 1-i, p.Now()+look, func(any) {}, nil)
			})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Stats()
	}
	st := run(false)
	ad := run(true)
	if st.AdaptiveWindows != 0 {
		t.Errorf("static run widened %d windows", st.AdaptiveWindows)
	}
	if ad.AdaptiveWindows == 0 {
		t.Error("adaptive run never widened a window")
	}
	if ad.Windows*5 > st.Windows {
		t.Errorf("windows did not collapse: adaptive %d vs static %d", ad.Windows, st.Windows)
	}
	if ad.Narrowest < look {
		t.Errorf("narrowest window %g below lookahead %g", ad.Narrowest, look)
	}
	if ad.Widest <= st.Widest {
		t.Errorf("adaptive widest %g not beyond static widest %g", ad.Widest, st.Widest)
	}
	if ad.Mail != st.Mail {
		t.Errorf("mail diverged: adaptive %d vs static %d", ad.Mail, st.Mail)
	}
}

// TestAdaptiveFallsBackWithoutPromise checks an engine whose partitions
// never register an oracle keeps floor-width windows: EarliestOutput
// degrades to the next event time, so no window widens.
func TestAdaptiveFallsBackWithoutPromise(t *testing.T) {
	g := Acquire(2, 2, look)
	defer g.Release()
	p := &ping{g: g, a: 0, b: 1, hops: 5, from: 0}
	g.NodeEnv(0).AtArg(0, p.hop, nil)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.AdaptiveWindows != 0 {
		t.Errorf("oracle-less run widened %d windows", st.AdaptiveWindows)
	}
	for i, tm := range p.times {
		if want := float64(i) * look; tm != want {
			t.Errorf("hop %d at %v, want %v", i, tm, want)
		}
	}
}

// TestEngineReuse runs the same workload on a pooled engine repeatedly,
// alternating worker counts, and checks no state leaks between runs.
func TestEngineReuse(t *testing.T) {
	var total atomic.Int64
	run := func(workers int) int64 {
		g := Acquire(3, workers, look)
		defer g.Release()
		start := total.Load()
		for i := 0; i < 3; i++ {
			i := i
			g.NodeEnv(i).Spawn("w", func(p *sim.Proc) {
				p.Wait(look / 2)
				g.Post(i, (i+1)%3, p.Now()+look, func(any) { total.Add(1) }, nil)
			})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return total.Load() - start
	}
	for i, workers := range []int{1, 3, 1, 2, 3} {
		if n := run(workers); n != 3 {
			t.Fatalf("iteration %d (workers=%d): %d deliveries, want 3", i, workers, n)
		}
	}
}
