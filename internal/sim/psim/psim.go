// Package psim is the conservative-lookahead parallel execution engine
// for one large simulated job: it partitions a multi-node job into one
// logical partition per node, each with its own event queue and clock
// (a sim.Env), and advances all partitions concurrently inside safe
// windows derived from the interconnect latency floor.
//
// The scheme is the classic null-message-free window synchronization
// (YAWNS / bounded-lag Chandy-Misra): because every cross-node effect
// trails its cause by at least the inter-node latency L (netsim's
// cut-through transfer model guarantees this for headers, data legs,
// CTS, and ACK alike), all partitions may execute events in
// [T, T+L) concurrently, where T is the global minimum next-event time.
// Cross-partition sends become timestamped mail collected in per-source
// outboxes during the window and merged into the receivers' queues at
// the barrier, ordered by (time, source partition, submission order) —
// a canonical order independent of how the window's execution
// interleaved. Each partition assigns its own (time, seq) tiebreaks
// from its private counter, so the simulation is deterministic and
// byte-identical for ANY worker count, including one. The serial
// engine's identity to the partitioned one is pinned by the determinism
// goldens in internal/spec.
//
// The engine widens windows beyond the static floor using per-partition
// earliest-output-time promises (sim.Env's EarliestOutput, fed by the
// MPI layer's oracle): each barrier advances to min over partitions of
// EOT plus the latency floor. An environment with no oracle registered
// reports its next event time, so its windows stay at the floor.
// Because every promise is a sound lower bound on the partition's next
// cross-node send, all mail posted inside the wider window still carries
// timestamps at or past the next barrier, and because windows only
// partition virtual time — equal-timestamp mail always lands in the
// same window under any window schedule — the canonical merge order,
// and therefore the output bytes, are unchanged. A compute-heavy job
// that would take ~10^5 latency-floor windows collapses to a few
// hundred barriers.
package psim

import (
	"math"
	"sort"
	"sync"

	"github.com/spechpc/spechpc-sim/internal/sim"
)

// mail is one cross-partition event in flight: fn(arg) scheduled at
// absolute time t on the destination, posted by partition src.
type mail struct {
	t   float64
	src int32
	fn  func(any)
	arg any
}

// partition is one per-node logical partition: its environment plus the
// outboxes it fills during a window (indexed by destination partition).
// Only the owning partition appends to its outboxes, so window
// execution shares no mutable state between partitions.
type partition struct {
	env *sim.Env
	out [][]mail
}

// Engine coordinates the window loop. It implements sim.Router: node i
// maps to partition i, always — the partition structure is a property
// of the job, not of the worker count, which is what makes output
// independent of parallelism.
type Engine struct {
	parts     []*partition // live partitions: partStore[:nodes]
	partStore []*partition
	lookahead float64
	workers   int

	window float64 // current window end, set before dispatch
	inbox  []mail  // per-destination merge scratch
	work   chan *partition
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
	stat   Stats
}

// Stats counts one run's window behavior; read it with Engine.Stats
// after Run and before Release. The counters are what make the adaptive
// win observable without a profiler: a compute-heavy job shows Windows
// collapsing by orders of magnitude versus floor-width windows while
// Mail stays identical (the same simulation flows through fewer
// barriers).
type Stats struct {
	// Windows is the number of barrier-to-barrier windows executed.
	Windows int64
	// AdaptiveWindows counts windows the oracle widened beyond the
	// static latency floor. Zero when no oracle is registered.
	AdaptiveWindows int64
	// Mail is the number of cross-partition events merged at barriers.
	Mail int64
	// IdleParts counts partition×window pairs where a partition had no
	// event before the window end (it sat out the barrier).
	IdleParts int64
	// Widest and Narrowest are the extreme window spans (window end
	// minus global minimum event time) in virtual seconds. Narrowest is
	// never below the lookahead: windows only ever widen.
	Widest    float64
	Narrowest float64
}

// merge folds another run's stats into s (for process-wide totals).
func (s *Stats) merge(o Stats) {
	s.Windows += o.Windows
	s.AdaptiveWindows += o.AdaptiveWindows
	s.Mail += o.Mail
	s.IdleParts += o.IdleParts
	if o.Widest > s.Widest {
		s.Widest = o.Widest
	}
	if s.Narrowest == 0 || (o.Narrowest > 0 && o.Narrowest < s.Narrowest) {
		s.Narrowest = o.Narrowest
	}
}

// Stats returns the counters of the engine's last (or in-progress) run.
func (g *Engine) Stats() Stats { return g.stat }

// Process-wide totals across every engine run, for /statsz and -v
// style observability surfaces.
var (
	totalsMu sync.Mutex
	totals   Totals
)

// Totals aggregates window statistics across all engine runs in this
// process.
type Totals struct {
	// Runs counts completed Engine.Run calls.
	Runs int64
	Stats
}

// Snapshot returns the process-wide window statistics accumulated by
// every engine run so far.
func Snapshot() Totals {
	totalsMu.Lock()
	defer totalsMu.Unlock()
	return totals
}

// flushTotals folds the finished run's counters into the process-wide
// snapshot.
func (g *Engine) flushTotals() {
	totalsMu.Lock()
	defer totalsMu.Unlock()
	totals.Runs++
	totals.Stats.merge(g.stat)
}

// enginePool recycles Engine coordination state (partition structs,
// outbox and merge buffers, worker channels) across jobs; the partition
// environments themselves come from the sim environment pool.
var enginePool = sync.Pool{New: func() any { return &Engine{} }}

// Acquire returns an engine for a job spanning nodes partitions,
// executed by up to workers concurrent executors, with the given
// conservative lookahead (netsim.Spec.LatencyFloor). Each partition
// gets a reset environment from the sim pool. The engine widens windows
// past the static floor using the partitions' EarliestOutput bounds;
// callers that register no oracle get floor-width windows.
func Acquire(nodes, workers int, lookahead float64) *Engine {
	if nodes <= 0 {
		panic("psim: engine with no partitions")
	}
	if lookahead <= 0 {
		panic("psim: non-positive lookahead")
	}
	g := enginePool.Get().(*Engine)
	g.lookahead = lookahead
	g.stat = Stats{}
	g.workers = workers
	if g.workers > nodes {
		g.workers = nodes
	}
	for len(g.partStore) < nodes {
		g.partStore = append(g.partStore, &partition{})
	}
	g.parts = g.partStore[:nodes]
	for _, p := range g.parts {
		p.env = sim.AcquireEnv()
		for len(p.out) < nodes {
			p.out = append(p.out, nil)
		}
	}
	g.err = nil
	return g
}

// Release returns clean partition environments to the sim pool and the
// engine to its own pool. sim.ReleaseEnv stops the process coroutines of
// a partition a failed run left unclean and drops its environment,
// exactly as for the serial engine's environment.
func (g *Engine) Release() {
	for _, p := range g.parts {
		sim.ReleaseEnv(p.env)
		p.env = nil
		for d := range p.out {
			// Drop any undelivered mail references (failed runs) so the
			// pooled buffers do not pin callback arguments.
			clear(p.out[d][:cap(p.out[d])])
			p.out[d] = p.out[d][:0]
		}
	}
	clear(g.inbox[:cap(g.inbox)])
	g.inbox = g.inbox[:0]
	g.parts = nil
	enginePool.Put(g)
}

// NodeEnv returns the partition environment simulating the given node.
func (g *Engine) NodeEnv(node int) *sim.Env { return g.parts[node].env }

// Post schedules fn(arg) at absolute time t on node dst's partition.
// Same-partition posts schedule directly; cross-partition posts go to
// the source's outbox and are merged at the next window barrier. The
// conservative contract — t is at least one lookahead past the source
// clock — guarantees the destination has not advanced past t.
func (g *Engine) Post(src, dst int, t float64, fn func(any), arg any) {
	if src == dst {
		g.parts[src].env.AtArg(t, fn, arg)
		return
	}
	p := g.parts[src]
	p.out[dst] = append(p.out[dst], mail{t: t, src: int32(src), fn: fn, arg: arg})
}

// Run executes the window loop to completion: deliver pending mail,
// find the global minimum next-event time T, execute every partition's
// events in [T, w) concurrently, repeat. The window end w is the static
// T+lookahead or the global earliest-output bound plus the lookahead,
// whichever is later: every partition has promised not to post
// cross-partition mail before the bound, and all mail trails its cause
// by at least the lookahead, so nothing can land
// inside the wider window. It returns the first process panic, or a
// deadlock error if parked processes remain after all queues and
// mailboxes drain.
func (g *Engine) Run() error {
	defer g.flushTotals()
	if g.workers > 1 {
		// Workers receive the channel by value: the engine field is
		// cleared on return while late-starting workers still read from
		// the (closed) channel.
		g.work = make(chan *partition)
		for i := 0; i < g.workers; i++ {
			go g.worker(g.work)
		}
		defer func() {
			close(g.work)
			g.work = nil
		}()
	}
	for {
		g.deliver()
		t, ok := g.minNextEvent()
		if !ok {
			break
		}
		// span is recorded as exactly the lookahead for unwidened
		// windows (t+lookahead-t can round one ulp below it), so the
		// Narrowest counter honors "windows only widen" literally.
		span := g.lookahead
		w := t + g.lookahead
		// minEarliestOutput is finite here (the partition owning t
		// reports at most a finite bound while events are queued) and
		// never below t; the IsInf check is pure defense.
		if eo := g.minEarliestOutput(); eo > t && !math.IsInf(eo, 1) {
			w = eo + g.lookahead
			span = w - t
			g.stat.AdaptiveWindows++
		}
		g.noteWindow(span)
		g.runWindow(w)
		if g.err != nil {
			return g.err
		}
	}
	for _, p := range g.parts {
		if err := p.env.CheckDeadlock(); err != nil {
			return err
		}
	}
	return nil
}

// minEarliestOutput returns the earliest time any partition may next
// produce cross-partition output: the min over partitions of their
// EarliestOutput bound. Partitions with no queued events are inert
// until mail reaches them (+Inf) and do not gate the window.
func (g *Engine) minEarliestOutput() float64 {
	m := math.Inf(1)
	for _, p := range g.parts {
		if eo := p.env.EarliestOutput(); eo < m {
			m = eo
		}
	}
	return m
}

// noteWindow records one window's span in the run counters.
func (g *Engine) noteWindow(span float64) {
	g.stat.Windows++
	if span > g.stat.Widest {
		g.stat.Widest = span
	}
	if g.stat.Narrowest == 0 || span < g.stat.Narrowest {
		g.stat.Narrowest = span
	}
}

// deliver merges every outbox into its destination queue, ordered by
// (time, source partition, submission order). The order is canonical —
// it depends only on the simulation, not on which worker ran what when —
// so the destination's private seq counter assigns identical tiebreaks
// on every run at every worker count.
func (g *Engine) deliver() {
	for d, pd := range g.parts {
		box := g.inbox[:0]
		for _, ps := range g.parts {
			if len(ps.out[d]) > 0 {
				box = append(box, ps.out[d]...)
				clear(ps.out[d])
				ps.out[d] = ps.out[d][:0]
			}
		}
		if len(box) == 0 {
			continue
		}
		g.stat.Mail += int64(len(box))
		sort.SliceStable(box, func(i, j int) bool {
			if box[i].t != box[j].t {
				return box[i].t < box[j].t
			}
			return box[i].src < box[j].src
		})
		for i := range box {
			pd.env.AtArg(box[i].t, box[i].fn, box[i].arg)
		}
		clear(box)
		g.inbox = box[:0]
	}
}

// minNextEvent returns the earliest queued event time across partitions.
func (g *Engine) minNextEvent() (float64, bool) {
	var t float64
	found := false
	for _, p := range g.parts {
		if nt, ok := p.env.NextEventTime(); ok && (!found || nt < t) {
			t, found = nt, true
		}
	}
	return t, found
}

// runWindow executes every partition with work before the window end,
// concurrently when more than one is active and workers allow. A lone
// active partition runs inline — the common tail pattern when one node
// straggles — skipping the dispatch round trip.
func (g *Engine) runWindow(w float64) {
	g.window = w
	var solo *partition
	active := 0
	for _, p := range g.parts {
		if nt, ok := p.env.NextEventTime(); ok && nt < w {
			active++
			solo = p
		}
	}
	g.stat.IdleParts += int64(len(g.parts) - active)
	if active == 0 {
		return
	}
	if active == 1 {
		g.runOne(solo)
		return
	}
	if g.work == nil {
		for _, p := range g.parts {
			if nt, ok := p.env.NextEventTime(); ok && nt < w {
				g.runOne(p)
			}
		}
		return
	}
	g.wg.Add(active)
	for _, p := range g.parts {
		if nt, ok := p.env.NextEventTime(); ok && nt < w {
			g.work <- p
		}
	}
	g.wg.Wait()
}

// worker drains partition executions dispatched by runWindow. The
// window bound read inside runOne is ordered by the channel handoff:
// runWindow writes g.window before sending, the send happens-before the
// receive, and wg.Wait keeps every worker parked between windows.
func (g *Engine) worker(work chan *partition) {
	for p := range work {
		g.runOne(p)
		g.wg.Done()
	}
}

// runOne advances one partition to the window end, recording the first
// failure.
func (g *Engine) runOne(p *partition) {
	if err := p.env.RunBefore(g.window); err != nil {
		g.mu.Lock()
		if g.err == nil {
			g.err = err
		}
		g.mu.Unlock()
	}
}
