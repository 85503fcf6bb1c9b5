package mpi

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/trace"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// testRun runs a job on ClusterA with a trace recorder attached.
func testRun(t *testing.T, ranks int, body func(r *Rank)) (Result, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(ranks, true)
	res, err := Run(Config{Cluster: machine.ClusterA(), Ranks: ranks, Trace: rec}, body)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

func TestSendRecvDataIntegrity(t *testing.T) {
	payload := []float64{3.14, 2.71, 1.41}
	_, _ = testRun(t, 2, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, payload, 24)
		case 1:
			m := r.Recv(0, 7)
			if m.Src != 0 || m.Tag != 7 {
				t.Errorf("message envelope = src %d tag %d, want 0/7", m.Src, m.Tag)
			}
			for i, v := range payload {
				if m.Data[i] != v {
					t.Errorf("data[%d] = %v, want %v", i, m.Data[i], v)
				}
			}
		}
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	_, _ = testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{1}
			q := r.Isend(1, 0, buf, 8)
			buf[0] = 999 // mutate after Isend: receiver must see 1
			r.Wait(q)
		} else {
			m := r.Recv(0, 0)
			if m.Data[0] != 1 {
				t.Errorf("receiver saw mutated buffer: %v", m.Data[0])
			}
		}
	})
}

func TestEagerSendDoesNotBlock(t *testing.T) {
	// Small message: sender completes even though the receiver posts its
	// receive only after a long compute.
	var sendDone float64
	_, _ = testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, []float64{1}, 100)
			sendDone = r.Now()
		} else {
			r.Compute(machine.Phase{FlopsSIMD: 76.8e9}) // ~1 s
			r.Recv(0, 0)
		}
	})
	if sendDone > 0.01 {
		t.Fatalf("eager send returned at %v, want immediately", sendDone)
	}
}

func TestRendezvousSendBlocksUntilRecvPosted(t *testing.T) {
	// Large message: the sender must block until the receiver posts.
	var sendDone float64
	_, _ = testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, []float64{1}, 4*units.MiB)
			sendDone = r.Now()
		} else {
			r.Compute(machine.Phase{FlopsSIMD: 76.8e9}) // ~1 s
			r.Recv(0, 0)
		}
	})
	if sendDone < 1.0 {
		t.Fatalf("rendezvous send returned at %v, want >= 1.0 (blocked on receiver)", sendDone)
	}
}

func TestRendezvousBlockedTimeIsTraced(t *testing.T) {
	_, rec := testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, nil, 4*units.MiB)
		} else {
			r.Compute(machine.Phase{FlopsSIMD: 76.8e9})
			r.Recv(0, 0)
		}
	})
	if got := rec.Sum(0, trace.KindSend); got < 0.9 {
		t.Fatalf("rank 0 MPI_Send time = %v, want ~1 s of rendezvous blocking", got)
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	// Two same-tag messages must match in send order even though the
	// second is smaller and its data lands earlier.
	_, _ = testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, []float64{1}, 32*units.KiB)
			r.Send(1, 5, []float64{2}, 16)
		} else {
			m1 := r.Recv(0, 5)
			m2 := r.Recv(0, 5)
			if m1.Data[0] != 1 || m2.Data[0] != 2 {
				t.Errorf("out-of-order matching: got %v then %v", m1.Data[0], m2.Data[0])
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	_, _ = testRun(t, 3, func(r *Rank) {
		switch r.ID() {
		case 0:
			m := r.Recv(AnySource, AnyTag)
			if m.Data[0] != float64(m.Src) {
				t.Errorf("wildcard recv: data %v from src %d", m.Data[0], m.Src)
			}
			m2 := r.Recv(AnySource, AnyTag)
			if m2.Data[0] != float64(m2.Src) {
				t.Errorf("wildcard recv 2: data %v from src %d", m2.Data[0], m2.Src)
			}
			if m.Src == m2.Src {
				t.Error("received twice from same source")
			}
		default:
			r.Send(0, r.ID(), []float64{float64(r.ID())}, 8)
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	_, _ = testRun(t, 2, func(r *Rank) {
		other := 1 - r.ID()
		m := r.Sendrecv(other, 3, []float64{float64(r.ID())}, 1*units.MiB, other, 3)
		if m.Data[0] != float64(other) {
			t.Errorf("rank %d got %v, want %v", r.ID(), m.Data[0], float64(other))
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	_, _ = testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			reqs := []*Request{
				r.Isend(1, 1, []float64{10}, 8),
				r.Isend(1, 2, []float64{20}, 8),
			}
			r.Waitall(reqs)
		} else {
			q1 := r.Irecv(0, 2)
			q2 := r.Irecv(0, 1)
			msgs := r.Waitall([]*Request{q1, q2})
			if msgs[0].Data[0] != 20 || msgs[1].Data[0] != 10 {
				t.Errorf("tag-selective irecv got %v/%v", msgs[0].Data[0], msgs[1].Data[0])
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	// Rank 1 computes ~1 s before the barrier; every rank must leave the
	// barrier no earlier than that.
	exits := make([]float64, 4)
	_, _ = testRun(t, 4, func(r *Rank) {
		if r.ID() == 1 {
			r.Compute(machine.Phase{FlopsSIMD: 76.8e9})
		}
		r.Barrier()
		exits[r.ID()] = r.Now()
	})
	for i, e := range exits {
		if e < 1.0 {
			t.Errorf("rank %d left barrier at %v, before straggler arrived", i, e)
		}
		if e > 1.01 {
			t.Errorf("rank %d left barrier at %v, too long after straggler", i, e)
		}
	}
}

func TestBarrierTracksWaitTime(t *testing.T) {
	_, rec := testRun(t, 4, func(r *Rank) {
		if r.ID() == 1 {
			r.Compute(machine.Phase{FlopsSIMD: 76.8e9})
		}
		r.Barrier()
	})
	// Rank 0 waited ~1 s in the barrier; rank 1 almost none.
	if w := rec.Sum(0, trace.KindBarrier); w < 0.9 {
		t.Errorf("rank 0 barrier time %v, want ~1 s", w)
	}
	if w := rec.Sum(1, trace.KindBarrier); w > 0.1 {
		t.Errorf("rank 1 barrier time %v, want ~0", w)
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, _ = testRun(t, n, func(r *Rank) {
				in := []float64{float64(r.ID()), 1}
				out := r.Allreduce(in, 16, OpSum)
				wantSum := float64(n*(n-1)) / 2
				if out[0] != wantSum || out[1] != float64(n) {
					t.Errorf("rank %d allreduce = %v, want [%v %v]", r.ID(), out, wantSum, float64(n))
				}
			})
		})
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	_, _ = testRun(t, 5, func(r *Rank) {
		v := float64(r.ID())
		if got := r.Allreduce([]float64{v}, 8, OpMax)[0]; got != 4 {
			t.Errorf("max = %v, want 4", got)
		}
		if got := r.Allreduce([]float64{v}, 8, OpMin)[0]; got != 0 {
			t.Errorf("min = %v, want 0", got)
		}
	})
}

func TestReduceToRoot(t *testing.T) {
	for _, root := range []int{0, 2} {
		root := root
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			_, _ = testRun(t, 6, func(r *Rank) {
				out := r.Reduce(root, []float64{1}, 8, OpSum)
				if r.ID() == root {
					if out == nil || out[0] != 6 {
						t.Errorf("root result = %v, want [6]", out)
					}
				} else if out != nil {
					t.Errorf("non-root rank %d got %v, want nil", r.ID(), out)
				}
			})
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{2, 3, 8, 11} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, _ = testRun(t, n, func(r *Rank) {
				var in []float64
				if r.ID() == 1 {
					in = []float64{42, 43}
				} else {
					in = []float64{0, 0}
				}
				out := r.Bcast(1, in, 16)
				if out[0] != 42 || out[1] != 43 {
					t.Errorf("rank %d bcast got %v", r.ID(), out)
				}
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	_, _ = testRun(t, 5, func(r *Rank) {
		out := r.Allgather([]float64{float64(r.ID() * 10)}, 8)
		for i := 0; i < 5; i++ {
			if out[i][0] != float64(i*10) {
				t.Errorf("rank %d allgather[%d] = %v, want %v", r.ID(), i, out[i][0], float64(i*10))
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	_, _ = testRun(t, 4, func(r *Rank) {
		chunks := make([][]float64, 4)
		for i := range chunks {
			chunks[i] = []float64{float64(r.ID()*100 + i)}
		}
		out := r.Alltoall(chunks, 8)
		for i := 0; i < 4; i++ {
			want := float64(i*100 + r.ID())
			if out[i][0] != want {
				t.Errorf("rank %d alltoall[%d] = %v, want %v", r.ID(), i, out[i][0], want)
			}
		}
	})
}

func TestConsecutiveCollectivesDoNotCrossMatch(t *testing.T) {
	// A fast rank racing ahead into the next collective must not steal
	// messages from the previous one.
	_, _ = testRun(t, 3, func(r *Rank) {
		for iter := 0; iter < 10; iter++ {
			out := r.Allreduce([]float64{1}, 8, OpSum)
			if out[0] != 3 {
				t.Errorf("iter %d: allreduce = %v, want 3", iter, out[0])
			}
			r.Barrier()
		}
	})
}

// TestDeadlockIsReported runs a deadlocking job repeatedly on the serial
// and the partitioned engine. Every run must report the deadlock, and
// the failed runs must not leak the parked ranks' coroutines.
func TestDeadlockIsReported(t *testing.T) {
	const runs = 50
	cluster := machine.ClusterA()
	cpn := cluster.CPU.CoresPerNode()
	for name, cfg := range map[string]Config{
		"serial":      {Cluster: cluster, Ranks: 2},
		"partitioned": {Cluster: cluster, Ranks: cpn + 1, SimWorkers: 2},
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < runs; i++ {
				_, err := Run(cfg, func(r *Rank) {
					peer := cfg.Ranks - 1 - r.ID()
					if peer != r.ID() {
						r.Recv(peer, 0) // both receive first: deadlock
					}
				})
				if err == nil {
					t.Fatal("mutual Recv did not report deadlock")
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines alive after %d deadlocked runs, want at most %d", n, runs, base)
				}
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestMPITimeFeedsUsage(t *testing.T) {
	res, _ := testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(machine.Phase{FlopsSIMD: 76.8e9})
			r.Send(1, 0, nil, 4*units.MiB)
		} else {
			r.Recv(0, 0) // waits ~1 s for the sender to compute
		}
	})
	if res.Usage.TimeMPI < 0.9 {
		t.Fatalf("usage MPI time = %v, want ~1 s", res.Usage.TimeMPI)
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, err := Run(Config{Cluster: machine.ClusterA(), Ranks: 2}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(0, 0, nil, 8)
		}
	})
	if err == nil {
		t.Fatal("send-to-self did not error")
	}
}

func TestAllreduceMatchesLocalReductionProperty(t *testing.T) {
	f := func(raw [7]int32, nSel uint8) bool {
		var vals [7]float64
		for i, v := range raw {
			vals[i] = float64(v) / 16 // bounded, exactly representable
		}
		n := 2 + int(nSel)%6 // 2..7 ranks
		ok := true
		_, err := Run(Config{Cluster: machine.ClusterA(), Ranks: n}, func(r *Rank) {
			in := []float64{vals[r.ID()]}
			out := r.Allreduce(in, 8, OpSum)
			want := 0.0
			for i := 0; i < n; i++ {
				want += vals[i]
			}
			if math.Abs(out[0]-want) > 1e-9*(1+math.Abs(want)) {
				ok = false
			}
		})
		return err == nil && ok
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierScalingCost(t *testing.T) {
	// Dissemination barrier cost grows with log2(P): 16 ranks should pay
	// more rounds than 2 ranks but far less than linearly.
	cost := func(n int) float64 {
		res, _ := testRun(t, n, func(r *Rank) {
			r.Barrier()
		})
		return res.Wall
	}
	c2, c16 := cost(2), cost(16)
	if c16 <= c2 {
		t.Fatalf("barrier cost did not grow: %v vs %v", c2, c16)
	}
	if c16 > 8*c2 {
		t.Fatalf("barrier cost grew linearly: %v vs %v", c2, c16)
	}
}

func TestAllreduceLargePayloadRabenseifner(t *testing.T) {
	// Payloads above the threshold take the reduce-scatter + allgather
	// path; the result must match the local reduction exactly for every
	// rank count, including non-powers of two.
	for _, n := range []int{3, 4, 5, 7, 8, 12, 16} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			const L = 64
			_, err := Run(Config{Cluster: machine.ClusterA(), Ranks: n}, func(r *Rank) {
				in := make([]float64, L)
				for i := range in {
					in[i] = float64(r.ID()*1000 + i)
				}
				out := r.Allreduce(in, 4*units.MiB, OpSum)
				for i := range out {
					want := float64(i*n) + 1000*float64(n*(n-1))/2
					if math.Abs(out[i]-want) > 1e-9 {
						t.Fatalf("rank %d out[%d] = %v, want %v", r.ID(), i, out[i], want)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceLargeMovesLessDataThanDoubling(t *testing.T) {
	// The bandwidth-optimal path must beat recursive doubling for large
	// payloads: compare wall time for a 4 MiB reduction on 16 ranks
	// against a hypothetical log2(P) x payload pattern.
	res, _ := testRun(t, 16, func(r *Rank) {
		in := make([]float64, 128)
		r.Allreduce(in, 4*units.MiB, OpSum)
	})
	// Recursive doubling would move log2(16)=4 full payloads per rank:
	// >= 4 * 8 MiB / 10 GB/s ~ 3.3 ms. Rabenseifner should be well under.
	if res.Wall > 3e-3 {
		t.Fatalf("large allreduce took %.2f ms; bandwidth-optimal path not effective", res.Wall*1e3)
	}
}

func TestWaitanyReturnsFirstCompleted(t *testing.T) {
	_, _ = testRun(t, 3, func(r *Rank) {
		switch r.ID() {
		case 0:
			q1 := r.Irecv(1, 1) // arrives late
			q2 := r.Irecv(2, 2) // arrives early
			idx := r.Waitany([]*Request{q1, q2})
			if idx != 1 {
				t.Errorf("Waitany = %d, want 1 (early sender)", idx)
			}
			if msg := q2.Message(); msg == nil || msg.Data[0] != 22 {
				t.Errorf("early message wrong: %+v", q2.Message())
			}
			r.Wait(q1)
		case 1:
			r.Compute(machine.Phase{FlopsSIMD: 76.8e9}) // ~1 s delay
			r.Send(0, 1, []float64{11}, 8)
		case 2:
			r.Send(0, 2, []float64{22}, 8)
		}
	})
}

func TestWaitanyAttributesRecvTime(t *testing.T) {
	_, rec := testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			q := r.Irecv(1, 0)
			r.Waitany([]*Request{q})
		} else {
			r.Compute(machine.Phase{FlopsSIMD: 76.8e9})
			r.Send(0, 0, nil, 8)
		}
	})
	if got := rec.Sum(0, trace.KindRecv); got < 0.9 {
		t.Fatalf("Waitany on receives recorded %v s as MPI_Recv, want ~1", got)
	}
}

func TestRequestDoneAndMessage(t *testing.T) {
	_, _ = testRun(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			q := r.Isend(1, 0, []float64{5}, 8)
			if !q.Done() { // eager send completes locally
				t.Error("eager Isend not immediately done")
			}
			if q.Message() != nil {
				t.Error("send request carries a message")
			}
		} else {
			q := r.Irecv(0, 0)
			r.Wait(q)
			if !q.Done() || q.Message() == nil {
				t.Error("completed recv lacks message")
			}
		}
	})
}

func TestAllreduceHierarchicalMultiNode(t *testing.T) {
	// 80 ranks span two ClusterA nodes: the large-payload path goes
	// through the hierarchical algorithm and must still reduce exactly.
	const L = 64
	_, err := Run(Config{Cluster: machine.ClusterA(), Ranks: 80}, func(r *Rank) {
		in := make([]float64, L)
		for i := range in {
			in[i] = float64(r.ID() + i)
		}
		out := r.Allreduce(in, 8*units.MiB, OpSum)
		n := float64(r.Size())
		base := n * (n - 1) / 2 // sum of rank ids
		for i := range out {
			want := base + n*float64(i)
			if math.Abs(out[i]-want) > 1e-9 {
				t.Fatalf("rank %d out[%d] = %v, want %v", r.ID(), i, out[i], want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalCheaperThanFlat(t *testing.T) {
	// At 4 nodes, the hierarchical reduction must beat a flat
	// rank-level reduce-scatter: only leaders use the NICs.
	cost := func(body func(r *Rank)) float64 {
		res, err := Run(Config{Cluster: machine.ClusterA(), Ranks: 288}, body)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	payload := make([]float64, 1024)
	hier := cost(func(r *Rank) {
		r.Allreduce(payload, 32*units.MiB, OpSum)
	})
	flat := cost(func(r *Rank) {
		all := make([]int, r.Size())
		for i := range all {
			all[i] = i
		}
		r.beginColl(trace.KindAllreduce)
		r.rsagAmong(all, append([]float64(nil), payload...), 32*units.MiB, OpSum, 0)
		r.endColl()
	})
	if hier >= flat {
		t.Fatalf("hierarchical allreduce (%.4fs) not cheaper than flat (%.4fs)", hier, flat)
	}
}
