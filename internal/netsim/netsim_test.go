package netsim

import (
	"math"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/sim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

func TestSpecValidate(t *testing.T) {
	if err := HDR100().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := HDR100()
	bad.LinkBandwidth = 0
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth not rejected")
	}
}

// TestLatencyFloor pins the conservative lookahead across fabric
// variants: the floor is exactly the inter-node latency — intra-node
// latency, bandwidth, and eager tuning never shrink or widen the
// parallel engine's window — and fabrics without a positive inter-node
// latency are rejected rather than given an unusable zero floor.
func TestLatencyFloor(t *testing.T) {
	hdr200 := HDR100()
	hdr200.Name = "HDR200 InfiniBand fat-tree"
	hdr200.LinkBandwidth *= 2
	slowWire := HDR100()
	slowWire.InterNodeLatency = 10e-6
	tightIntra := HDR100()
	tightIntra.IntraNodeLatency = 1e-12 // intra-node latency is not the floor
	eagerOff := HDR100()
	eagerOff.EagerThreshold = 0
	zeroLat := HDR100()
	zeroLat.InterNodeLatency = 0
	negLat := HDR100()
	negLat.InterNodeLatency = -1e-6
	cases := []struct {
		name    string
		spec    Spec
		want    float64
		wantErr bool
	}{
		{"HDR100", HDR100(), 1.6e-6, false},
		{"HDR200 double bandwidth", hdr200, 1.6e-6, false},
		{"slow wire", slowWire, 10e-6, false},
		{"tiny intra-node latency", tightIntra, 1.6e-6, false},
		{"eager disabled", eagerOff, 1.6e-6, false},
		{"zero inter-node latency", zeroLat, 0, true},
		{"negative inter-node latency", negLat, 0, true},
	}
	for _, c := range cases {
		got, err := c.spec.LatencyFloor()
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: no error for fabric without a lookahead window", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got != c.want {
			t.Errorf("%s: floor %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLatencySelection(t *testing.T) {
	e := sim.NewEnv()
	n := New(e, HDR100(), 2)
	if n.Latency(0, 0) != HDR100().IntraNodeLatency {
		t.Error("intra-node latency wrong")
	}
	if n.Latency(0, 1) != HDR100().InterNodeLatency {
		t.Error("inter-node latency wrong")
	}
}

func TestEagerThreshold(t *testing.T) {
	e := sim.NewEnv()
	n := New(e, HDR100(), 1)
	if !n.Eager(1024) {
		t.Error("1 KiB message should be eager")
	}
	if n.Eager(1 * units.MiB) {
		t.Error("1 MiB message should be rendezvous")
	}
}

func TestInterNodeWireTime(t *testing.T) {
	// 12.5 GB transferred over a 12.5 GB/s link: 1 s of wire time.
	e := sim.NewEnv()
	n := New(e, HDR100(), 2)
	var done float64
	e.Spawn("sender", func(p *sim.Proc) {
		n.Transfer(p, 0, 1, 12.5*units.G)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done-1.0) > 1e-9 {
		t.Fatalf("wire time = %v, want 1.0", done)
	}
}

func TestIntraNodeTransferCostsTwoCopies(t *testing.T) {
	// Intra-node message: copy-in + copy-out = 2x bytes at the per-flow
	// shmem cap (10 GB/s): 5 GB message -> 1 s.
	e := sim.NewEnv()
	n := New(e, HDR100(), 1)
	var done float64
	e.Spawn("sender", func(p *sim.Proc) {
		n.Transfer(p, 0, 0, 5*units.G)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done-1.0) > 1e-9 {
		t.Fatalf("intra-node time = %v, want 1.0", done)
	}
}

func TestInjectionContention(t *testing.T) {
	// Two concurrent senders from node 0 to nodes 1 and 2 share the
	// injection link: each takes twice as long as alone.
	e := sim.NewEnv()
	n := New(e, HDR100(), 3)
	var t1, t2 float64
	e.Spawn("s1", func(p *sim.Proc) {
		n.Transfer(p, 0, 1, 12.5*units.G)
		t1 = p.Now()
	})
	e.Spawn("s2", func(p *sim.Proc) {
		n.Transfer(p, 0, 2, 12.5*units.G)
		t2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-2.0) > 1e-9 || math.Abs(t2-2.0) > 1e-9 {
		t.Fatalf("contended transfers finished at %v and %v, want 2.0 both", t1, t2)
	}
}

func TestEjectionContention(t *testing.T) {
	// Two senders on different nodes into one receiver node share ejection.
	e := sim.NewEnv()
	n := New(e, HDR100(), 3)
	var t1, t2 float64
	e.Spawn("s1", func(p *sim.Proc) {
		n.Transfer(p, 1, 0, 12.5*units.G)
		t1 = p.Now()
	})
	e.Spawn("s2", func(p *sim.Proc) {
		n.Transfer(p, 2, 0, 12.5*units.G)
		t2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-2.0) > 1e-9 || math.Abs(t2-2.0) > 1e-9 {
		t.Fatalf("ejection-contended transfers at %v and %v, want 2.0", t1, t2)
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	// 0->1 and 2->3 share nothing on a non-blocking fat-tree.
	e := sim.NewEnv()
	n := New(e, HDR100(), 4)
	var t1, t2 float64
	e.Spawn("s1", func(p *sim.Proc) {
		n.Transfer(p, 0, 1, 12.5*units.G)
		t1 = p.Now()
	})
	e.Spawn("s2", func(p *sim.Proc) {
		n.Transfer(p, 2, 3, 12.5*units.G)
		t2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-1.0) > 1e-9 || math.Abs(t2-1.0) > 1e-9 {
		t.Fatalf("disjoint transfers at %v and %v, want 1.0 both", t1, t2)
	}
}

func TestStartTransferAsyncCompletion(t *testing.T) {
	// Cut-through: injection takes 1.0 s of wire time, and the last byte
	// lands one propagation latency after it leaves the source — arrival
	// is 1.0 + InterNodeLatency, never earlier. This latency floor on
	// every destination-side effect is what the conservative-lookahead
	// window of internal/sim/psim relies on.
	e := sim.NewEnv()
	n := New(e, HDR100(), 2)
	want := 1.0 + HDR100().InterNodeLatency
	var arrived float64
	e.Spawn("driver", func(p *sim.Proc) {
		n.StartTransferArg(0, 1, 12.5*units.G, func(any) { arrived = e.Now() }, nil)
		// Sender continues immediately; do other things.
		p.Wait(0.1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(arrived-want) > 1e-9 {
		t.Fatalf("async arrival at %v, want %v", arrived, want)
	}
}

func TestZeroByteTransferInstant(t *testing.T) {
	e := sim.NewEnv()
	n := New(e, HDR100(), 2)
	var done float64 = -1
	e.Spawn("s", func(p *sim.Proc) {
		n.Transfer(p, 0, 1, 0)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 0 {
		t.Fatalf("zero-byte transfer took %v", done)
	}
}
