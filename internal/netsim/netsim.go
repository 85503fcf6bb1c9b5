// Package netsim models the cluster interconnect: HDR100 InfiniBand links
// in a non-blocking fat-tree between nodes, and shared-memory transport
// within a node.
//
// The fat-tree is non-blocking (as on both paper clusters), so the only
// contention points are node injection and ejection: each node has one NIC
// modeled as a pair of processor-sharing resources (one per direction) at
// the link bandwidth. Intra-node messages go through a per-node shared-
// memory resource representing copy-in/copy-out bandwidth.
//
// Protocol decisions (eager vs rendezvous) belong to package mpi; netsim
// only answers "how long does moving these bytes take, under current
// contention".
package netsim

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/sim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// Spec holds interconnect parameters.
type Spec struct {
	// Name identifies the fabric, e.g. "HDR100 InfiniBand fat-tree".
	Name string
	// IntraNodeLatency and InterNodeLatency are one-way message latencies
	// in seconds (startup cost of a zero-byte message).
	IntraNodeLatency float64
	InterNodeLatency float64
	// LinkBandwidth is the per-direction bandwidth of one node link (B/s).
	// HDR100: 100 Gbit/s = 12.5 GB/s raw.
	LinkBandwidth float64
	// ShmemBandwidthPerNode is the aggregate intra-node message-copy
	// bandwidth (B/s); ShmemPerFlowMax caps a single intra-node transfer.
	ShmemBandwidthPerNode float64
	ShmemPerFlowMax       float64
	// EagerThreshold is the message size (bytes) above which MPI switches
	// to the rendezvous protocol. Exposed here because it is a fabric/MPI
	// tuning parameter the ablation benches sweep.
	EagerThreshold float64
	// SendOverhead and RecvOverhead are per-message CPU costs in seconds
	// (matching, header processing).
	SendOverhead float64
	RecvOverhead float64
}

// HDR100 returns the interconnect of both paper clusters: HDR100
// InfiniBand (100 Gbit/s per link and direction) in a fat-tree.
func HDR100() Spec {
	return Spec{
		Name:                  "HDR100 InfiniBand fat-tree",
		IntraNodeLatency:      0.5e-6,
		InterNodeLatency:      1.6e-6,
		LinkBandwidth:         12.5 * units.G,
		ShmemBandwidthPerNode: 220 * units.G, // copies run on-core: scales with node memory bandwidth
		ShmemPerFlowMax:       10 * units.G,
		EagerThreshold:        64 * units.KiB,
		SendOverhead:          0.25e-6,
		RecvOverhead:          0.25e-6,
	}
}

// LatencyFloor returns the minimum virtual time any signal takes to
// cross between two distinct nodes: the conservative lookahead of the
// parallel engine (internal/sim/psim). No cross-node event scheduled by
// a partition at time t can take effect on another partition before
// t+floor, so all partitions may safely run ahead together inside a
// window of that width. A fabric without a positive inter-node latency
// admits no such window — that is an error, not an infinite lookahead.
func (s Spec) LatencyFloor() (float64, error) {
	if s.InterNodeLatency <= 0 {
		return 0, fmt.Errorf("netsim: %s has no positive inter-node latency: zero-latency fabrics admit no conservative lookahead window", s.Name)
	}
	return s.InterNodeLatency, nil
}

// Validate checks the spec for inconsistencies.
func (s Spec) Validate() error {
	switch {
	case s.LinkBandwidth <= 0 || s.ShmemBandwidthPerNode <= 0:
		return fmt.Errorf("netsim: %s has non-positive bandwidth", s.Name)
	case s.IntraNodeLatency < 0 || s.InterNodeLatency < 0:
		return fmt.Errorf("netsim: %s has negative latency", s.Name)
	case s.EagerThreshold < 0:
		return fmt.Errorf("netsim: %s has negative eager threshold", s.Name)
	}
	return nil
}

// Network is the runtime interconnect instance for a job spanning a number
// of nodes.
type Network struct {
	rt    sim.Router
	spec  Spec
	nodes int

	nicOut []*sim.PSResource // injection per node
	nicIn  []*sim.PSResource // ejection per node
	shmem  []*sim.PSResource // intra-node copy bandwidth per node

	// pairChunk bump-allocates, per source node, the join records used
	// by inter-node StartTransferArg. Sharded by node so concurrent
	// partitions never contend; the chunks die with the job (they are
	// dropped on Reinit), so completions never alias across runs.
	pairChunk [][]pairXfer
}

// nodeNames caches per-node resource names for common node counts so
// building (or reinitializing) a network does not Sprintf per node.
var nodeNames = func() (n struct{ out, in, shm [64]string }) {
	for i := range n.out {
		n.out[i] = fmt.Sprintf("nic-out%d", i)
		n.in[i] = fmt.Sprintf("nic-in%d", i)
		n.shm[i] = fmt.Sprintf("shmem%d", i)
	}
	return
}()

func nodeName(kind int, i int) string {
	if i < len(nodeNames.out) {
		switch kind {
		case 0:
			return nodeNames.out[i]
		case 1:
			return nodeNames.in[i]
		default:
			return nodeNames.shm[i]
		}
	}
	switch kind {
	case 0:
		return fmt.Sprintf("nic-out%d", i)
	case 1:
		return fmt.Sprintf("nic-in%d", i)
	default:
		return fmt.Sprintf("shmem%d", i)
	}
}

// New creates a Network for the given node count on a single serial
// environment.
func New(env *sim.Env, spec Spec, nodes int) *Network {
	n := &Network{}
	n.Reinit(env, spec, nodes)
	return n
}

// Reinit repoints a pooled Network at a new serial environment; see
// ReinitRouted for the partition-aware form.
func (n *Network) Reinit(env *sim.Env, spec Spec, nodes int) {
	n.ReinitRouted(sim.UniRouter{E: env}, spec, nodes)
}

// ReinitRouted repoints a pooled Network at a new router, spec, and node
// count, reusing the per-node resource structs (and their allocated flow
// lists) from previous runs. Growth beyond the previous maximum node
// count allocates only the new tail. Each node's NIC and shared-memory
// resources live on that node's partition environment, so partitions
// only ever touch their own resources.
func (n *Network) ReinitRouted(rt sim.Router, spec Spec, nodes int) {
	if nodes <= 0 {
		panic("netsim: network with no nodes")
	}
	n.rt, n.spec, n.nodes = rt, spec, nodes
	for len(n.nicOut) < nodes {
		i := len(n.nicOut)
		env := rt.NodeEnv(i)
		n.nicOut = append(n.nicOut, sim.NewPSResource(env, nodeName(0, i), spec.LinkBandwidth, 0))
		n.nicIn = append(n.nicIn, sim.NewPSResource(env, nodeName(1, i), spec.LinkBandwidth, 0))
		n.shmem = append(n.shmem, sim.NewPSResource(env, nodeName(2, i),
			spec.ShmemBandwidthPerNode, spec.ShmemPerFlowMax))
	}
	for len(n.pairChunk) < nodes {
		n.pairChunk = append(n.pairChunk, nil)
	}
	for i := 0; i < nodes; i++ {
		env := rt.NodeEnv(i)
		n.nicOut[i].Reinit(env, nodeName(0, i), spec.LinkBandwidth, 0)
		n.nicIn[i].Reinit(env, nodeName(1, i), spec.LinkBandwidth, 0)
		n.shmem[i].Reinit(env, nodeName(2, i), spec.ShmemBandwidthPerNode, spec.ShmemPerFlowMax)
		n.pairChunk[i] = nil
	}
}

// Spec returns the interconnect parameters.
func (n *Network) Spec() Spec { return n.spec }

// Nodes returns the node count of the job.
func (n *Network) Nodes() int { return n.nodes }

// Latency returns the one-way zero-byte latency between two nodes.
func (n *Network) Latency(src, dst int) float64 {
	if src == dst {
		return n.spec.IntraNodeLatency
	}
	return n.spec.InterNodeLatency
}

// Eager reports whether a message of the given size uses the eager
// protocol (true) or rendezvous (false).
func (n *Network) Eager(bytes float64) bool { return bytes <= n.spec.EagerThreshold }

// post schedules fn(arg) on node dst's partition delay seconds after
// node src's current time.
func (n *Network) post(src, dst int, delay float64, fn func(any), arg any) {
	n.rt.Post(src, dst, n.rt.NodeEnv(src).Now()+delay, fn, arg)
}

// Transfer moves bytes from src node to dst node, blocking the calling
// process for the wire time (excluding latency, which the caller pays
// according to its protocol). Zero-byte transfers return immediately.
// Serial-router only: it awaits the ejection flow from the sender's
// partition, so the MPI runtime uses StartTransferArg instead.
func (n *Network) Transfer(p *sim.Proc, src, dst int, bytes float64) {
	if bytes <= 0 {
		return
	}
	if src == dst {
		// Copy-in + copy-out through node shared memory.
		n.shmem[src].Transfer(p, 2*bytes)
		return
	}
	out := n.nicOut[src].StartFlowArg(bytes, nil, nil)
	in := n.nicIn[dst].StartFlowArg(bytes, nil, nil)
	out.Await(p)
	in.Await(p)
}

// pairXfer joins the legs of one inter-node transfer: the last byte
// leaves the source wire one latency before it can be ejected, and the
// stored callback fires at the destination when both the propagated
// injection completion and the ejection flow have finished. It is
// allocated on the source partition's arena; need, fn, and arg are only
// touched on the destination partition after the cross-node handoff.
type pairXfer struct {
	net      *Network
	src, dst int32
	bytes    float64
	need     int8
	fn       func(any)
	arg      any
}

// xferInjected fires on the source partition when the injection flow
// drains: the last byte reaches the destination one latency later.
func xferInjected(a any) {
	x := a.(*pairXfer)
	x.net.post(int(x.src), int(x.dst), x.net.spec.InterNodeLatency, xferLegDone, x)
}

// xferEject fires on the destination partition one latency after
// injection began: the leading bytes start draining through the
// destination NIC under its current contention.
func xferEject(a any) {
	x := a.(*pairXfer)
	x.net.nicIn[x.dst].StartFlowArg(x.bytes, xferLegDone, x)
}

// xferLegDone joins the two destination-side completion legs (last byte
// arrived, ejection flow drained); the transfer callback fires on the
// later one.
func xferLegDone(a any) {
	x := a.(*pairXfer)
	x.need--
	if x.need == 0 && x.fn != nil {
		x.fn(x.arg)
	}
}

// StartTransferArg begins an asynchronous transfer and fires fn(arg) on
// the DESTINATION node's partition when the bytes have fully arrived.
// fn should be a top-level function; the inter-node join record comes
// from a per-job bump arena, so steady-state transfers allocate nothing.
//
// Inter-node transfers are cut-through: injection starts now on the
// source NIC, ejection starts one wire latency later on the destination
// NIC, and arrival is the later of "last byte left the source + one
// latency" and "ejection flow drained". Every destination-side effect
// therefore trails the source by at least the inter-node latency — the
// property the conservative-lookahead window of internal/sim/psim is
// built on. Zero-byte cross-node completions likewise arrive one
// latency after the call.
func (n *Network) StartTransferArg(src, dst int, bytes float64, fn func(any), arg any) {
	if src == dst {
		if bytes <= 0 {
			if fn != nil {
				n.rt.NodeEnv(src).AfterArg(0, fn, arg)
			}
			return
		}
		n.shmem[src].StartFlowArg(2*bytes, fn, arg)
		return
	}
	if bytes <= 0 {
		if fn != nil {
			n.post(src, dst, n.spec.InterNodeLatency, fn, arg)
		}
		return
	}
	x := sim.BumpAlloc(&n.pairChunk[src], 256)
	x.net, x.src, x.dst, x.bytes = n, int32(src), int32(dst), bytes
	x.need, x.fn, x.arg = 2, fn, arg
	n.nicOut[src].StartFlowArg(bytes, xferInjected, x)
	n.post(src, dst, n.spec.InterNodeLatency, xferEject, x)
}
