// Package mpi implements a simulated MPI runtime on top of the
// discrete-event engine: ranks are sim processes, point-to-point messages
// follow eager or rendezvous protocols over the netsim interconnect, and
// collectives are built from the same point-to-point machinery with the
// standard algorithms (dissemination barrier, recursive-doubling
// allreduce, binomial trees, ring allgather).
//
// Because the protocol state machine is executed rather than approximated,
// communication pathologies emerge mechanistically: the rendezvous
// serialization chain of minisweep, barrier waiting behind a straggler in
// lbm, and the log(P) cost growth of soma's large allreduces.
//
// The API mirrors the MPI subset the SPEChpc 2021 codes use. Payloads are
// real []float64 slices (collectives really reduce them); ModelBytes
// carries the paper-scale message size that drives the timing model, so
// kernels can run scaled-down grids while communication costs stay at
// paper scale.
package mpi

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/sim"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// Wildcards for Recv matching, and the tag space boundary: user tags must
// stay below TagUserMax because collectives use the space above it.
const (
	AnySource = -1
	AnyTag    = -1
	// TagUserMax is the first tag reserved for internal collective use.
	TagUserMax = 1 << 20
)

// Config describes one simulated MPI job.
type Config struct {
	// Cluster is the machine the job runs on.
	Cluster *machine.ClusterSpec
	// Net holds interconnect parameters; a zero value selects HDR100.
	Net netsim.Spec
	// Ranks is the number of MPI processes, block-mapped onto cores.
	Ranks int
	// Trace, if non-nil, receives per-rank timeline events.
	Trace *trace.Recorder
	// SimWorkers > 1 executes a multi-node job on the conservative-
	// lookahead parallel engine (internal/sim/psim) with that many
	// concurrent partition executors. Output is byte-identical to the
	// serial engine at every worker count; single-node jobs and
	// SimWorkers <= 1 run serially. Requires a fabric with a positive
	// latency floor.
	SimWorkers int
}

// Result is the outcome of a simulated job.
type Result struct {
	// Usage holds the aggregated performance/energy record.
	Usage machine.Usage
	// Trace is the recorder passed in the config (nil if none).
	Trace *trace.Recorder
	// Wall is the job wall-clock virtual time in seconds.
	Wall float64
	// Partitioned reports whether the job ran on the parallel engine;
	// Psim then holds its window statistics (zero for serial runs).
	Partitioned bool
	Psim        psim.Stats
}

// Job is the runtime state of a simulated MPI application. Jobs are
// recycled through jobPool: the System/Network instances, the Rank
// structs (with their matching-queue and collective-scratch capacity),
// and the spawn closures all survive across runs, so a steady-state
// campaign job performs no per-rank setup allocation.
type Job struct {
	rt    sim.Router
	sys   *machine.System
	net   *netsim.Network
	rec   *trace.Recorder
	ranks []*Rank // live ranks for this run: rankStore[:n]

	// rankStore keeps every Rank ever created for this Job at its
	// high-water length, so shrinking and regrowing the job shape does
	// not reconstruct ranks.
	rankStore []*Rank

	// parts holds one protocol-object arena per node; live entries are
	// parts[:nodes]. Sharding by node keeps the allocation-free hot
	// path when partitions execute concurrently: every allocation
	// happens on the arena of the partition the allocating code runs
	// on, so arenas are never shared between executors.
	parts []partArena

	// Collective topology, precomputed once per run in mpi.Run instead
	// of per collective call: the dense identity participant list, the
	// node-leader list of the hierarchical allreduce, and the
	// cores-per-node stride that defines it.
	allRanks []int
	leaders  []int
	cpn      int

	// Adaptive-lookahead oracle state (attachOracle). pending counts
	// live point-to-point protocol activity per node, from both sides:
	// an Isend increments the source AND destination node, and each
	// side's count drops when its last possible protocol event has
	// provably fired — eager sources at data arrival (the wire
	// injection strictly precedes it), eager destinations once header
	// and data have both landed, rendezvous both sides during the
	// quiescent gap between header arrival and match (re-armed with the
	// CTS) and finally at the transfer completion and delivery ack.
	// While a node's count is nonzero, protocol events not owned by any
	// rank's park state may still produce cross-node output, so its
	// oracle makes no promise. The counters are atomics because a
	// remote partition's events adjust this node's count mid-window;
	// they are read only at window barriers, after the engine's
	// wg.Wait.
	oracleOn bool
	pending  []pendingCount
	oracles  []nodeOracle
}

// pendingCount pads each node's envelope counter to its own cache
// line: the counters are the one piece of state partition executors
// update from several OS threads at once (an Isend bumps both
// endpoints' nodes), and unpadded they pack 8 to a line — hot protocol
// paths of unrelated nodes would false-share every increment.
type pendingCount struct {
	n atomic.Int64
	_ [56]byte
}

// nodeOracle is one node's sim.OutputOracle: a conservative promise
// about the node's next cross-partition send, derived from the park
// state of its ranks. The engine reads it only at window barriers.
type nodeOracle struct {
	j    *Job
	node int
}

// EarliestOutputTime returns a lower bound on the node's next
// cross-node send. No promise (-Inf, collapsing to the static window)
// whenever any protocol envelope touching the node is unsettled or any
// rank is mid-MPI-call; otherwise the earliest compute-phase end floor
// over computing ranks. Blocked ranks contribute no bound of their own:
// every path that could wake one is covered elsewhere — incoming or
// in-flight protocol events by the pending counter, local compute
// completions by their floor, and anything already queued by the
// environment's next-event bound (sim.Env.EarliestOutput takes the max
// with it). Nodes where every rank is blocked or done promise +Inf,
// which the environment honors only when its event queue is empty, so
// a deadlocked partition never gates other partitions' windows and is
// still reported by the normal drain-and-check path.
func (o *nodeOracle) EarliestOutputTime() float64 {
	j := o.j
	if j.pending[o.node].n.Load() != 0 {
		return math.Inf(-1)
	}
	bound := math.Inf(1)
	lo := o.node * j.cpn
	hi := lo + j.cpn
	if hi > len(j.ranks) {
		hi = len(j.ranks)
	}
	for _, r := range j.ranks[lo:hi] {
		switch r.oState {
		case oComputing:
			if f := j.sys.PhaseEndFloor(r.id); f < bound {
				bound = f
			}
		case oBlocked:
			// Parked in a wait; cannot send until woken.
		default: // oActive: mid-call, next action rides a queued event.
			return math.Inf(-1)
		}
	}
	return bound
}

// notePending adjusts the unsettled-envelope count of a rank's node.
// No-op outside adaptive partitioned runs.
func (j *Job) notePending(rank int, d int64) {
	if j.oracleOn {
		j.pending[j.ranks[rank].place.Node].n.Add(d)
	}
}

// attachOracle wires the per-node earliest-output oracle into the
// partition environments and arms the pending counters. Called after
// init (the environments exist) and before the engine runs.
func (j *Job) attachOracle(eng *psim.Engine, nodes int) {
	if len(j.pending) < nodes {
		j.pending = make([]pendingCount, nodes)
	}
	for i := range j.pending {
		j.pending[i].n.Store(0)
	}
	if len(j.oracles) < nodes {
		j.oracles = make([]nodeOracle, nodes)
	}
	for node := 0; node < nodes; node++ {
		j.oracles[node] = nodeOracle{j: j, node: node}
		eng.NodeEnv(node).SetOutputOracle(&j.oracles[node])
	}
	j.oracleOn = true
}

// testOracleCheck, when set by tests, runs after a successful
// partitioned run with the job still intact (invariant checks on the
// oracle state).
var testOracleCheck func(*Job)

// partArena is one node's bump arenas (sim.BumpAlloc) for protocol
// objects. Envelopes, requests, and messages all die with the job, so
// handing them out from chunks trades one allocation per object for one
// per chunk. The chunks are dropped (not pooled) when the job is
// released: any payload or message a rank body leaked to its caller
// stays valid forever, pinned by the GC, instead of being clobbered by
// the next pooled run.
type partArena struct {
	ranks    int // ranks on this node, for chunk sizing
	envChunk []envelope
	reqChunk []Request
	msgChunk []Message
	// floatChunk backs every payload copy (Isend capture, collective
	// accumulators) and sliceChunk the out-slice headers of
	// Allgather/Alltoall; msgsChunk backs Waitall result slices.
	floatChunk []float64
	sliceChunk [][]float64
	msgsChunk  []*Message
}

// drop severs the arena's chunks so the next run starts fresh.
func (pa *partArena) drop() {
	pa.envChunk, pa.reqChunk, pa.msgChunk = nil, nil, nil
	pa.floatChunk, pa.sliceChunk, pa.msgsChunk = nil, nil, nil
}

// arenaChunk scales a per-rank chunk quota to the node's rank count,
// clamped so a 2-rank ping-pong job does not pay for 18-rank slabs and
// a full-node job does not allocate multi-megabyte ones. Refills stay
// amortized: steady state is a handful of chunk allocations per node at
// any size.
func (pa *partArena) arenaChunk(perRank, floor, limit int) int {
	n := perRank * pa.ranks
	if n < floor {
		n = floor
	}
	if n > limit {
		n = limit
	}
	return n
}

func (pa *partArena) newEnvelope() *envelope {
	return sim.BumpAlloc(&pa.envChunk, pa.arenaChunk(64, 128, 8192))
}
func (pa *partArena) newRequest() *Request {
	return sim.BumpAlloc(&pa.reqChunk, pa.arenaChunk(128, 256, 16384))
}
func (pa *partArena) newMessage() *Message {
	return sim.BumpAlloc(&pa.msgChunk, pa.arenaChunk(64, 128, 8192))
}

// allocFloats hands out a zeroed []float64 of length n from the node's
// payload arena. Zero-length requests return nil, matching the historic
// `append([]float64(nil), data...)` behavior for empty payloads.
func (pa *partArena) allocFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	if n > len(pa.floatChunk) {
		size := pa.arenaChunk(512, 1024, 65536)
		if n > size {
			size = n
		}
		pa.floatChunk = make([]float64, size)
	}
	s := pa.floatChunk[:n:n]
	pa.floatChunk = pa.floatChunk[n:]
	return s
}

// cloneFloats copies data into the payload arena.
func (pa *partArena) cloneFloats(data []float64) []float64 {
	s := pa.allocFloats(len(data))
	copy(s, data)
	return s
}

// allocSlices hands out a [][]float64 of length n from the node arena
// (backing for Allgather/Alltoall results).
func (pa *partArena) allocSlices(n int) [][]float64 {
	if n > len(pa.sliceChunk) {
		size := pa.arenaChunk(4, 64, 4096)
		if n > size {
			size = n
		}
		pa.sliceChunk = make([][]float64, size)
	}
	s := pa.sliceChunk[:n:n]
	pa.sliceChunk = pa.sliceChunk[n:]
	return s
}

// allocMsgPtrs hands out a []*Message of length n from the node arena
// (backing for Waitall results).
func (pa *partArena) allocMsgPtrs(n int) []*Message {
	if n > len(pa.msgsChunk) {
		size := pa.arenaChunk(8, 64, 4096)
		if n > size {
			size = n
		}
		pa.msgsChunk = make([]*Message, size)
	}
	s := pa.msgsChunk[:n:n]
	pa.msgsChunk = pa.msgsChunk[n:]
	return s
}

// arena returns the rank's node-local arena; all of a rank's own
// allocations come from it.
func (r *Rank) arena() *partArena { return &r.job.parts[r.place.Node] }

// arenaOf returns the arena of the node hosting the given rank — used
// by destination-side protocol events (message construction on receive).
func (j *Job) arenaOf(rank int) *partArena {
	return &j.parts[j.ranks[rank].place.Node]
}

// envOf returns the environment simulating the given rank's node.
func (j *Job) envOf(rank int) *sim.Env {
	return j.rt.NodeEnv(j.ranks[rank].place.Node)
}

// post schedules fn(arg) delay seconds from now on the partition of
// dstRank's node, from code currently executing on srcRank's partition.
// On the serial engine this is a plain AfterArg; on the parallel engine
// cross-node posts travel through the window-barrier mailbox. delay must
// be at least the fabric latency floor for cross-node posts — true for
// every protocol event, which is what makes conservative windows safe.
func (j *Job) post(srcRank, dstRank int, delay float64, fn func(any), arg any) {
	srcNode := j.ranks[srcRank].place.Node
	dstNode := j.ranks[dstRank].place.Node
	e := j.rt.NodeEnv(srcNode)
	j.rt.Post(srcNode, dstNode, e.Now()+delay, fn, arg)
}

// jobPool recycles Job state across runs. Like the sim environment pool,
// each campaign worker acquires its own Job, so reuse is race-free by
// construction; the Job of a failed run (deadlock, panic) is dropped
// because ranks unwound mid-call may have left it inconsistent.
var jobPool = sync.Pool{New: func() any { return &Job{} }}

// Rank is one MPI process. All methods must be called from within the
// rank's own body function.
type Rank struct {
	job   *Job
	id    int
	proc  *sim.Proc
	place machine.Placement
	body  func(*Rank)
	runFn func(*sim.Proc) // persistent spawn closure; reused across pooled runs

	unexpected []*envelope
	posted     []*Request
	bounds     [][2]int // rsag chunk-bounds scratch; never escapes a collective
	collSeq    int
	collKind   trace.Kind
	inColl     bool
	// oState is the rank's park state as seen by the adaptive-lookahead
	// oracle. Written only by the rank's own partition; read by the
	// engine coordinator at window barriers (ordered by the barrier's
	// wg.Wait / channel handoff).
	oState uint8
}

// Oracle park states. oActive is the zero value: any rank not known to
// be in a promisable state makes no promise.
const (
	oActive    uint8 = iota // running or mid-MPI-call
	oComputing              // inside Rank.Compute: promise PhaseEndFloor
	oBlocked                // parked in a wait, or finished: silent until woken
)

// boundsScratch returns the rank's reusable [n][2]int table for the
// reduce-scatter/allgather segment arithmetic.
func (r *Rank) boundsScratch(n int) [][2]int {
	if cap(r.bounds) < n {
		r.bounds = make([][2]int, n)
	}
	return r.bounds[:n]
}

// Run simulates an MPI job: it spawns cfg.Ranks processes each executing
// body, runs the event loop to completion, and returns the aggregated
// usage. An error is returned for deadlocks or panics inside rank bodies.
func Run(cfg Config, body func(r *Rank)) (Result, error) {
	if cfg.Cluster == nil {
		return Result{}, fmt.Errorf("mpi: config without cluster")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Ranks <= 0 {
		return Result{}, fmt.Errorf("mpi: non-positive rank count %d", cfg.Ranks)
	}
	if cfg.Ranks > cfg.Cluster.MaxRanks() {
		return Result{}, fmt.Errorf("mpi: %d ranks exceed %s capacity %d",
			cfg.Ranks, cfg.Cluster.Name, cfg.Cluster.MaxRanks())
	}
	if cfg.Net.Name == "" {
		cfg.Net = netsim.HDR100()
	}
	if err := cfg.Net.Validate(); err != nil {
		return Result{}, err
	}

	// A multi-node job with SimWorkers > 1 runs on the conservative-
	// lookahead parallel engine; everything else runs serially. The two
	// paths produce byte-identical results (pinned by the determinism
	// goldens), so the choice is purely a wall-clock matter.
	nodes := cfg.Cluster.NodesFor(cfg.Ranks)
	if cfg.SimWorkers > 1 && nodes > 1 {
		return runPartitioned(cfg, nodes, body)
	}

	// Environments and job state come from pools: event slabs, process
	// structs and their coroutines, machine/network resources, and Rank
	// structs are all recycled across campaign jobs. A failed run
	// (deadlock, panic) still releases its environment, which stops the
	// blocked ranks' coroutines and drops the environment; the Job is
	// dropped too.
	env := sim.AcquireEnv()
	job := jobPool.Get().(*Job)
	job.init(sim.UniRouter{E: env}, cfg, body)
	if err := env.Run(); err != nil {
		sim.ReleaseEnv(env)
		return Result{}, err
	}
	u := job.sys.Usage()
	sim.ReleaseEnv(env)
	job.release()
	return Result{Usage: u, Trace: cfg.Trace, Wall: u.Wall}, nil
}

// runPartitioned executes a multi-node job on the psim engine: one
// partition per node, advancing concurrently inside lookahead windows
// derived from the fabric latency floor.
func runPartitioned(cfg Config, nodes int, body func(r *Rank)) (Result, error) {
	floor, err := cfg.Net.LatencyFloor()
	if err != nil {
		return Result{}, fmt.Errorf("mpi: SimWorkers=%d: %w", cfg.SimWorkers, err)
	}
	eng := psim.Acquire(nodes, cfg.SimWorkers, floor)
	job := jobPool.Get().(*Job)
	job.init(eng, cfg, body)
	job.attachOracle(eng, nodes)
	if err := eng.Run(); err != nil {
		// Failed runs drop the job; the engine stops the blocked ranks'
		// coroutines and releases what stayed clean.
		eng.Release()
		return Result{}, err
	}
	if testOracleCheck != nil {
		testOracleCheck(job)
	}
	u := job.sys.Usage()
	st := eng.Stats()
	eng.Release()
	job.release()
	return Result{Usage: u, Trace: cfg.Trace, Wall: u.Wall,
		Partitioned: true, Psim: st}, nil
}

// init prepares a pooled Job for one run: reinitializes the machine and
// network instances in place, resets the live ranks, and precomputes the
// collective topology. In steady state (shapes at or below the pool
// entry's high-water marks) it allocates nothing. The router decides the
// execution mode: sim.UniRouter for the serial engine, a psim.Engine for
// partitioned execution — the job wiring is identical either way.
func (j *Job) init(rt sim.Router, cfg Config, body func(r *Rank)) {
	n := cfg.Ranks
	j.rt, j.rec = rt, cfg.Trace
	j.oracleOn = false // armed separately by attachOracle
	if j.sys == nil {
		j.sys = &machine.System{}
	}
	j.sys.ReinitRouted(rt, cfg.Cluster, n)
	nodes := cfg.Cluster.NodesFor(n)
	if j.net == nil {
		j.net = &netsim.Network{}
	}
	j.net.ReinitRouted(rt, cfg.Net, nodes)

	// Per-node arenas: drop last run's chunks, size this run's shape.
	for len(j.parts) < nodes {
		j.parts = append(j.parts, partArena{})
	}
	cpn := cfg.Cluster.CPU.CoresPerNode()
	for node := 0; node < nodes; node++ {
		pa := &j.parts[node]
		pa.drop()
		onNode := n - node*cpn
		if onNode > cpn {
			onNode = cpn
		}
		pa.ranks = onNode
	}

	// Collective topology for this job: identity participant list and
	// node-leader list, shared by every collective call of the run.
	j.cpn = cfg.Cluster.CPU.CoresPerNode()
	j.allRanks = j.allRanks[:0]
	j.leaders = j.leaders[:0]
	for i := 0; i < n; i++ {
		j.allRanks = append(j.allRanks, i)
	}
	for l := 0; l < n; l += j.cpn {
		j.leaders = append(j.leaders, l)
	}

	for len(j.rankStore) < n {
		r := &Rank{job: j, id: len(j.rankStore)}
		// The spawn closure is built once per Rank lifetime and reused
		// by every pooled run, so spawning allocates no per-run closure.
		r.runFn = func(p *sim.Proc) {
			r.proc = p
			r.body(r)
			// A finished rank never sends again: permanently silent to
			// the oracle.
			r.oState = oBlocked
			r.job.sys.RankFinished(r.id, p.Now())
		}
		j.rankStore = append(j.rankStore, r)
	}
	j.ranks = j.rankStore[:n]
	for i, r := range j.ranks {
		r.place = cfg.Cluster.Place(i)
		r.body = body
		r.collSeq, r.collKind, r.inColl = 0, 0, false
		r.oState = oActive
		// Each rank lives on the partition simulating its node; under
		// the serial router every node maps to the same environment.
		r.proc = rt.NodeEnv(r.place.Node).Spawn(rankName(i), r.runFn)
	}
}

// release drops the job-scoped arenas (so leaked payloads stay valid,
// pinned by the GC), severs references the pool must not retain, and
// returns the Job for reuse.
func (j *Job) release() {
	j.rt, j.rec = nil, nil
	for i := range j.parts {
		j.parts[i].drop()
	}
	for _, r := range j.rankStore {
		r.body, r.proc = nil, nil
		// The matching queues are empty after a clean run, but their
		// backing arrays still hold stale pointers into the dropped
		// chunks; clear up to capacity so the pool does not pin them.
		clear(r.posted[:cap(r.posted)])
		clear(r.unexpected[:cap(r.unexpected)])
		r.posted, r.unexpected = r.posted[:0], r.unexpected[:0]
	}
	jobPool.Put(j)
}

// rankNames caches process names for common rank counts so spawning a
// job does not Sprintf once per rank.
var rankNames = func() [1024]string {
	var n [1024]string
	for i := range n {
		n[i] = fmt.Sprintf("rank%d", i)
	}
	return n
}()

func rankName(i int) string {
	if i < len(rankNames) {
		return rankNames[i]
	}
	return fmt.Sprintf("rank%d", i)
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the job.
func (r *Rank) Size() int { return len(r.job.ranks) }

// Place returns the rank's hardware placement.
func (r *Rank) Place() machine.Placement { return r.place }

// Now returns the current virtual time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// Cluster returns the cluster specification the job runs on.
func (r *Rank) Cluster() *machine.ClusterSpec { return r.job.sys.Spec() }

// Compute executes a compute phase on this rank's core through the
// machine model and records it on the trace timeline. For the duration
// of the phase the rank promises the oracle it cannot send before the
// phase's end floor (machine.System.PhaseEndFloor).
func (r *Rank) Compute(ph machine.Phase) {
	t0 := r.proc.Now()
	r.oState = oComputing
	r.job.sys.Compute(r.proc, r.id, ph)
	r.oState = oActive
	r.job.rec.Record(r.id, trace.KindCompute, t0, r.proc.Now(), -1)
}

// traceKind returns the kind to attribute an MPI interval to: the
// surrounding collective if one is active, otherwise the point-to-point
// default.
func (r *Rank) traceKind(def trace.Kind) trace.Kind {
	if r.inColl {
		return r.collKind
	}
	return def
}

// mpiInterval charges [t0,now) as MPI time to power accounting and the
// trace.
func (r *Rank) mpiInterval(kind trace.Kind, t0 float64, peer int) {
	now := r.proc.Now()
	if now <= t0 {
		return
	}
	r.job.sys.AccountMPI(r.id, now-t0)
	r.job.rec.Record(r.id, kind, t0, now, peer)
}

// wake makes the rank re-check its blocking condition if it is parked.
// Ranks in timed waits or running observe state changes on their own.
// Must be called from the rank's own partition.
func (j *Job) wake(rank int) {
	p := j.ranks[rank].proc
	if p.State() == sim.StateParked {
		j.envOf(rank).Wake(p)
	}
}

// wakePair wakes ranks a and b (in that order) after a symmetric
// completion. When both are parked the wakes share one batched queue
// entry instead of one event per rank. Only used for same-node
// completions (intra-node rendezvous), so both ranks share a partition.
func (j *Job) wakePair(a, b int) {
	pa, pb := j.ranks[a].proc, j.ranks[b].proc
	aParked := pa.State() == sim.StateParked
	bParked := pb.State() == sim.StateParked
	switch {
	case aParked && bParked:
		j.envOf(a).WakePair(pa, pb)
	case aParked:
		j.envOf(a).Wake(pa)
	case bParked:
		j.envOf(b).Wake(pb)
	}
}
