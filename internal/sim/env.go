package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
)

// ProcState describes what a process is currently doing. It is exported so
// that diagnostic output (e.g. deadlock reports) can name the state.
type ProcState int

// Process states.
const (
	// StateNew means the process was spawned but has not run yet.
	StateNew ProcState = iota
	// StateRunning means the process is the one currently executing.
	StateRunning
	// StateWaiting means the process sleeps until a scheduled resume event.
	StateWaiting
	// StateParked means the process blocks until another party wakes it.
	StateParked
	// StateDone means the process function returned.
	StateDone
)

// String returns a human-readable state name.
func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateWaiting:
		return "waiting"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Env is a discrete-event simulation environment: a virtual clock, an event
// queue, and a set of processes, each a coroutine. An Env must be created
// with NewEnv (or taken from the pool with AcquireEnv). It is not safe for
// concurrent use; all interaction happens either from the goroutine that
// calls Run or from within process functions, which run only while the
// scheduler has switched to them. Successive Run calls may come from
// different goroutines as long as they do not overlap.
type Env struct {
	now float64
	seq uint64

	// slots is the event slab; freeSlots recycles indices of released
	// events so steady-state scheduling allocates nothing.
	slots     []eventSlot
	freeSlots []int32
	// heap holds future events ordered by (time, seq), keys inline.
	heap []heapEntry
	// nowq is a FIFO of slot indices for events scheduled at the current
	// timestamp (wakes, zero-length waits): they are already in (time,
	// seq) order by construction, so they bypass the heap entirely.
	nowq    []int32
	nowHead int

	procs    []*Proc
	procFree []*Proc
	current  *Proc
	failure  error
	stopped  bool
	// token is the pool entry of an environment taken with AcquireEnv,
	// held while it is in use and nil otherwise. Its presence is what
	// makes finished processes keep their coroutines for reuse.
	token *envToken

	// flowChunk bump-allocates Flow structs for this run's resources;
	// the chunks are dropped at reset, so flows never alias across runs.
	flowChunk []Flow

	// oracle, when set, tightens EarliestOutput: a model-level promise
	// about when this environment can next affect another one. Nil for
	// serial runs and partitions without a registered oracle.
	oracle OutputOracle
}

// OutputOracle is a conservative promise about an environment's next
// externally visible action. EarliestOutputTime returns a lower bound
// on the virtual time at which the environment can next produce output
// for another partition (post cross-partition mail). The bound must be
// sound under any future schedule: returning -Inf (no promise) is
// always safe, returning +Inf promises the partition will never send
// again. The parallel engine reads it only at window barriers, so the
// implementation may consult state mutated freely inside windows.
type OutputOracle interface {
	EarliestOutputTime() float64
}

// NewEnv returns an empty environment with the clock at zero. Its
// processes' coroutines exit when the processes finish, so a cleanly
// finished environment can simply be dropped.
func NewEnv() *Env { return &Env{} }

// envToken is what envPool holds: a handle to an idle environment that
// the environment's own coroutines cannot reach. Idle coroutines keep
// their Env reachable, so a pooled Env is never garbage itself; when the
// pool drops the token instead, the cleanup registered on it stops the
// coroutines and the Env becomes garbage with them.
type envToken struct{ env *Env }

// newEnvToken wraps e in a pool token whose collection stops e's
// coroutines. The cleanup is registered once per token: while the
// environment is in use it holds the token (Env.token), so the token
// can only become unreachable after the pool has dropped it.
func newEnvToken(e *Env) *envToken {
	t := &envToken{env: e}
	runtime.AddCleanup(t, (*Env).stopProcs, e)
	return t
}

// envPool recycles environments — and with them event slabs, process
// structs, and their coroutines — across simulation runs. Campaign
// workers each acquire their own Env, so pooled reuse is race-free by
// construction and is exercised under -race by the campaign tests.
var envPool = sync.Pool{New: func() any { return newEnvToken(NewEnv()) }}

// AcquireEnv returns a reset environment from the pool. Finished
// processes of an acquired environment keep their coroutines parked for
// the next Spawn, so the environment must go back through ReleaseEnv:
// dropping it instead leaks those goroutines.
func AcquireEnv() *Env {
	t := envPool.Get().(*envToken)
	t.env.token = t
	return t.env
}

// ReleaseEnv resets e and returns it to the pool. An environment that
// did not finish cleanly (failed run, undrained queue, processes still
// blocked) has its process coroutines stopped and is dropped instead:
// the unwound processes may have left internal state inconsistent.
func ReleaseEnv(e *Env) {
	if e == nil {
		return
	}
	if !e.clean() {
		e.stopProcs()
		return
	}
	e.reset()
	t := e.token
	if t == nil {
		t = newEnvToken(e)
	}
	e.token = nil
	envPool.Put(t)
}

// stopProcs stops every process coroutine of the environment. A process
// blocked mid-function unwinds from its yield (see Proc.yield); a
// finished one parked for reuse simply returns. It is idempotent, and it
// must not run while a process of e executes.
func (e *Env) stopProcs() {
	for _, ps := range [2][]*Proc{e.procs, e.procFree} {
		for _, p := range ps {
			if p.stop != nil {
				p.stop()
			}
		}
	}
}

// clean reports whether the environment finished a run with no failure,
// an empty queue, and every process completed.
func (e *Env) clean() bool {
	if e.failure != nil || e.current != nil {
		return false
	}
	if len(e.heap) > 0 || e.nowHead < len(e.nowq) {
		return false
	}
	for _, p := range e.procs {
		if p.state != StateDone {
			return false
		}
	}
	return true
}

// reset rewinds the environment to the zero-time state while keeping all
// allocated capacity: the event slab, the free list, and finished process
// structs (whose coroutines are reused by future Spawns).
func (e *Env) reset() {
	e.now, e.seq = 0, 0
	e.failure = nil
	e.stopped = false
	for _, p := range e.procs {
		p.fn = nil
		p.state = StateNew
		p.wakeTokens = 0
		p.pending = Event{}
		p.parkReason = ""
		p.name = ""
		e.procFree = append(e.procFree, p)
	}
	e.procs = e.procs[:0]
	e.nowq, e.nowHead = e.nowq[:0], 0
	e.flowChunk = nil
	e.oracle = nil
}

// SetOutputOracle registers (or clears, with nil) the environment's
// output oracle. The caller keeps ownership of the oracle; reset drops
// the reference.
func (e *Env) SetOutputOracle(o OutputOracle) { e.oracle = o }

// BumpAlloc hands out one zeroed *T from the chunk, growing by whole
// chunks of n, so allocation cost is paid once per n objects. Handed-out
// objects stay live until the chunk is dropped; use it for run-scoped
// objects (flows, MPI protocol state) that die with their run.
func BumpAlloc[T any](chunk *[]T, n int) *T {
	if len(*chunk) == 0 {
		*chunk = make([]T, n)
	}
	p := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return p
}

// allocFlow hands out one zeroed Flow from the environment's bump arena.
func (e *Env) allocFlow() *Flow {
	return BumpAlloc(&e.flowChunk, 256)
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// checkTime panics on times that always indicate a modeling bug.
func (e *Env) checkTime(t float64) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < now %v", t, e.now))
	}
}

// allocSlot takes a slot from the free list (or grows the slab), stamps
// it with the next sequence number, and enqueues it: events at the
// current timestamp go to the FIFO now-queue, future events to the heap.
func (e *Env) allocSlot(t float64) int32 {
	e.checkTime(t)
	e.seq++
	var idx int32
	if n := len(e.freeSlots) - 1; n >= 0 {
		idx = e.freeSlots[n]
		e.freeSlots = e.freeSlots[:n]
	} else {
		e.slots = append(e.slots, eventSlot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	if s.gen&1 == 1 {
		s.gen++ // slot was last cancelled; restore the even live parity
	}
	s.time, s.seq = t, e.seq
	if t == e.now {
		s.pos = posNow
		e.nowq = append(e.nowq, idx)
	} else {
		e.heapPush(idx)
	}
	return idx
}

// releaseSlot clears a detached slot's references and recycles its index.
func (e *Env) releaseSlot(idx int32) {
	s := &e.slots[idx]
	s.proc, s.proc2, s.flow = nil, nil, nil
	s.fnArg, s.arg = nil, nil
	s.dead = false
	s.pos = posDetached
	e.freeSlots = append(e.freeSlots, idx)
}

// scheduleArg inserts a static-callback event at absolute time t. The
// callback function value must not capture state — everything it needs
// travels in arg — so the hot path allocates no closure.
func (e *Env) scheduleArg(t float64, fn func(any), arg any) Event {
	idx := e.allocSlot(t)
	s := &e.slots[idx]
	s.kind, s.fnArg, s.arg = evFnArg, fn, arg
	return Event{env: e, idx: idx, gen: s.gen}
}

// scheduleProc inserts a typed process event (start, resume, wake) at
// absolute time t without allocating a closure.
func (e *Env) scheduleProc(t float64, kind evKind, p *Proc) Event {
	idx := e.allocSlot(t)
	s := &e.slots[idx]
	s.kind, s.proc = kind, p
	return Event{env: e, idx: idx, gen: s.gen}
}

// scheduleFlow inserts a flow-completion event at absolute time t.
func (e *Env) scheduleFlow(t float64, f *Flow) Event {
	idx := e.allocSlot(t)
	s := &e.slots[idx]
	s.kind, s.flow = evFlow, f
	return Event{env: e, idx: idx, gen: s.gen}
}

// retimeFlow moves a flow's completion event to a new time, reusing the
// queued slot when possible. It consumes exactly one sequence number —
// the same accounting as the cancel-plus-reschedule it replaces — so
// event ordering is identical to the original engine's.
func (e *Env) retimeFlow(ev Event, t float64, f *Flow) Event {
	if ev.valid() {
		s := &e.slots[ev.idx]
		if s.pos >= 0 {
			e.checkTime(t)
			e.seq++
			s.time, s.seq = t, e.seq
			ent := &e.heap[s.pos]
			ent.time, ent.seq = t, e.seq
			e.heapFix(s.pos)
			return ev
		}
		// Rare: the event sits in the now-queue (a flow that was due to
		// complete at the current instant is being rescheduled). FIFO
		// entries cannot move; cancel in place and start fresh.
		ev.Cancel()
	}
	return e.scheduleFlow(t, f)
}

// AtArg schedules fn(arg) to run at absolute virtual time t. The
// callback runs on the scheduler and must not block in virtual time;
// use Spawn for blocking logic. It carries its state in arg, so callers
// passing a top-level function allocate nothing (MPI protocol events
// fire once per message).
func (e *Env) AtArg(t float64, fn func(any), arg any) Event { return e.scheduleArg(t, fn, arg) }

// AfterArg schedules fn(arg) to run d seconds after the current time; see
// AtArg for the allocation contract.
func (e *Env) AfterArg(d float64, fn func(any), arg any) Event {
	return e.scheduleArg(e.now+d, fn, arg)
}

// Proc is a simulation process: a runtime coroutine (iter.Pull) whose
// execution is interleaved with other processes in virtual time. Only
// the scheduler resumes it, and it runs until it yields back. Process
// methods that block (Wait, Park, resource acquisition) must only be
// called from within the process's own function.
type Proc struct {
	env        *Env
	id         int
	name       string
	state      ProcState
	wakeTokens int
	pending    Event // scheduled resume while in StateWaiting
	parkReason string
	fn         func(*Proc)

	// next resumes the coroutine until it yields; stop unwinds it;
	// suspend is the coroutine's yield. All nil while no coroutine exists.
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool
}

// Spawn creates a process named name executing fn and schedules it to start
// at the current virtual time. It returns immediately; fn runs once the
// scheduler reaches the start event during Run. Finished process structs
// from a previous run of a pooled environment are reused, coroutine
// included.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree) - 1; n >= 0 {
		p = e.procFree[n]
		e.procFree = e.procFree[:n]
	} else {
		p = &Proc{env: e}
	}
	p.id = len(e.procs)
	p.name = name
	p.state = StateNew
	p.fn = fn
	e.procs = append(e.procs, p)
	e.scheduleProc(e.now, evStart, p)
	return p
}

// startProc hands control to a spawned process, creating its coroutine
// unless the struct kept one from an earlier run; the scheduler resumes
// once the process yields.
func (e *Env) startProc(p *Proc) {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.body)
	}
	e.transferTo(p)
}

// stopSignal is the panic value that unwinds a process whose coroutine
// is stopped while it is blocked.
type stopSignal struct{}

// body is the coroutine behind a process. It runs fn once per start.
// On an environment taken from the pool it then yields and waits for
// the struct's next Spawn, so one coroutine serves every run; otherwise,
// or once stopped, it returns and the coroutine ends.
func (p *Proc) body(suspend func(struct{}) bool) {
	p.suspend = suspend
	for !p.run() && p.env.token != nil && suspend(struct{}{}) {
	}
	p.next, p.stop, p.suspend = nil, nil, nil
}

// run executes the process function once and reports whether the
// coroutine was stopped in the middle of it. Any other panic is
// recovered here, on the process's own stack, and recorded as the run's
// failure; iter.Pull would otherwise re-raise it on the scheduler.
func (p *Proc) run() (stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopSignal); ok {
				stopped = true
				return
			}
			if e := p.env; e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}
		p.state = StateDone
	}()
	p.fn(p)
	return false
}

// transferTo hands control to p and suspends the scheduler until p
// yields (parks, waits, or finishes).
func (e *Env) transferTo(p *Proc) {
	prev := e.current
	e.current = p
	p.state = StateRunning
	p.next()
	e.current = prev
}

// yield returns control from the running process to the scheduler and
// suspends until the scheduler resumes this process. If the coroutine
// is stopped instead, it unwinds the process function.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(stopSignal{})
	}
}

// mustBeCurrent panics unless p is the currently executing process; all
// blocking primitives require this.
func (p *Proc) mustBeCurrent(op string) {
	if p.env.current != p {
		panic(fmt.Sprintf("sim: %s called on process %q which is not running (state %v)", op, p.name, p.state))
	}
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn index, unique within its Env.
func (p *Proc) ID() int { return p.id }

// State returns the current scheduling state of the process.
func (p *Proc) State() ProcState { return p.state }

// Now returns the current virtual time; shorthand for p.Env().Now().
func (p *Proc) Now() float64 { return p.env.now }

// Wait suspends the process for d seconds of virtual time. A negative d is
// treated as zero (the process yields and resumes at the same timestamp,
// after already-scheduled events at that timestamp).
func (p *Proc) Wait(d float64) {
	if d < 0 {
		d = 0
	}
	p.WaitUntil(p.env.now + d)
}

// WaitUntil suspends the process until absolute virtual time t.
func (p *Proc) WaitUntil(t float64) {
	p.mustBeCurrent("WaitUntil")
	e := p.env
	if t < e.now {
		t = e.now
	}
	p.state = StateWaiting
	p.pending = e.scheduleProc(t, evResume, p)
	p.yield()
}

// Park blocks the process until another party calls Wake or WakeAt for it.
// If a wake token is already available (Wake happened first), Park consumes
// it and returns immediately. The reason string appears in deadlock
// reports; hot paths should pass a precomputed or constant string.
func (p *Proc) Park(reason string) {
	p.mustBeCurrent("Park")
	if p.wakeTokens > 0 {
		p.wakeTokens--
		return
	}
	p.state = StateParked
	p.parkReason = reason
	p.yield()
	p.parkReason = ""
}

// Wake makes a parked process runnable at the current virtual time. If the
// process is not parked (yet, or anymore — something else may have woken it
// between scheduling and firing), the wake is remembered as a token that
// the next Park consumes; Park users re-check their condition in a loop, so
// spurious tokens are harmless.
func (e *Env) Wake(p *Proc) { e.WakeAt(e.now, p) }

// WakeAt schedules a wake for process p at absolute virtual time t.
func (e *Env) WakeAt(t float64, p *Proc) {
	if p.state == StateDone {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	e.scheduleProc(t, evWake, p)
}

// WakePair schedules one event at the current time that wakes a and then
// b, exactly as two consecutive Wake calls would but with a single queue
// entry — the batched fast path for symmetric completions (a rendezvous
// message finishing wakes sender and receiver together).
func (e *Env) WakePair(a, b *Proc) {
	if a.state == StateDone || b.state == StateDone {
		panic(fmt.Sprintf("sim: waking finished process %q/%q", a.name, b.name))
	}
	idx := e.allocSlot(e.now)
	s := &e.slots[idx]
	s.kind, s.proc, s.proc2 = evWakePair, a, b
}

// fireWake delivers one wake: a parked process resumes, a finished one
// drops the wake, anything else (running, timed wait, not started) keeps
// a token for its next Park.
func (e *Env) fireWake(p *Proc) {
	switch p.state {
	case StateParked:
		e.transferTo(p)
	case StateDone:
		// Process finished between scheduling and firing; drop.
	default:
		p.wakeTokens++
	}
}

// peekNext returns the queue position of the earliest live event without
// removing it: (slot index, whether it sits in the heap, found). Dead
// now-queue entries (cancelled in place) are drained and released here.
func (e *Env) peekNext() (int32, bool, bool) {
	for e.nowHead < len(e.nowq) {
		idx := e.nowq[e.nowHead]
		if !e.slots[idx].dead {
			break
		}
		e.nowHead++
		e.releaseSlot(idx)
	}
	if e.nowHead == len(e.nowq) {
		e.nowq, e.nowHead = e.nowq[:0], 0
	}
	hasNow := e.nowHead < len(e.nowq)
	hasHeap := len(e.heap) > 0
	switch {
	case hasNow && hasHeap:
		nowIdx := e.nowq[e.nowHead]
		ns := &e.slots[nowIdx]
		if entryLess(e.heap[0], heapEntry{time: ns.time, seq: ns.seq}) {
			return e.heap[0].idx, true, true
		}
		return nowIdx, false, true
	case hasNow:
		return e.nowq[e.nowHead], false, true
	case hasHeap:
		return e.heap[0].idx, true, true
	default:
		return 0, false, false
	}
}

// dispatch releases the slot and then executes the event. Releasing
// first means the event's own callback can recycle the slot and that a
// late Cancel on a fired event is a no-op, as before.
func (e *Env) dispatch(idx int32) {
	s := &e.slots[idx]
	kind := s.kind
	fnArg, arg := s.fnArg, s.arg
	p, p2, flow := s.proc, s.proc2, s.flow
	s.gen += 2 // fired: handles go stale with even parity (not cancelled)
	e.releaseSlot(idx)
	switch kind {
	case evFnArg:
		fnArg(arg)
	case evStart:
		e.startProc(p)
	case evResume:
		p.pending = Event{}
		e.transferTo(p)
	case evWake:
		e.fireWake(p)
	case evWakePair:
		e.fireWake(p)
		e.fireWake(p2)
	case evFlow:
		flow.res.complete(flow)
	}
}

// Run executes events until the queue is exhausted or a process panics.
// It returns an error if a process panicked or if, after the queue drained,
// some processes are still parked (a deadlock in the simulated system).
func (e *Env) Run() error { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= t. The clock is left at the
// time of the last executed event (or at t if no event remained).
func (e *Env) RunUntil(t float64) error {
	if e.stopped {
		return fmt.Errorf("sim: environment already stopped")
	}
	for {
		idx, fromHeap, ok := e.peekNext()
		if !ok {
			break
		}
		s := &e.slots[idx]
		if s.time > t {
			// Leave it queued for a later RunUntil call.
			if e.now < t && !math.IsInf(t, 1) {
				e.now = t
			}
			return e.failure
		}
		if fromHeap {
			e.heapPopMin()
		} else {
			e.nowHead++
			s.pos = posDetached
		}
		e.now = s.time
		e.dispatch(idx)
		if e.failure != nil {
			e.stopped = true
			return e.failure
		}
	}
	if math.IsInf(t, 1) {
		if err := e.deadlockError(); err != nil {
			e.stopped = true
			return err
		}
	}
	return nil
}

// RunBefore executes events with timestamps strictly below t and leaves
// later events queued. The clock stays at the last executed event, so
// events delivered afterwards at times >= t never land in the past. It
// is the window-execution primitive of the conservative-lookahead
// parallel engine: each partition runs RunBefore(window) concurrently,
// then merges cross-partition messages at the barrier. No deadlock
// check happens here — an empty queue only means this partition is
// waiting for the next window.
func (e *Env) RunBefore(t float64) error {
	if e.stopped {
		return fmt.Errorf("sim: environment already stopped")
	}
	for {
		idx, fromHeap, ok := e.peekNext()
		if !ok {
			return nil
		}
		s := &e.slots[idx]
		if s.time >= t {
			return nil
		}
		if fromHeap {
			e.heapPopMin()
		} else {
			e.nowHead++
			s.pos = posDetached
		}
		e.now = s.time
		e.dispatch(idx)
		if e.failure != nil {
			e.stopped = true
			return e.failure
		}
	}
}

// NextEventTime returns the timestamp of the earliest queued live event,
// or false when the queue is empty. The parallel engine uses it to
// compute the global window floor between barriers.
func (e *Env) NextEventTime() (float64, bool) {
	idx, _, ok := e.peekNext()
	if !ok {
		return 0, false
	}
	return e.slots[idx].time, true
}

// EarliestOutput returns a lower bound on the virtual time at which
// this environment can next affect another partition. With no queued
// events the environment is inert until mail arrives (+Inf); otherwise
// the next event time is always a sound bound — nothing can happen
// before it — and a registered oracle may tighten it further (a parked
// compute phase cannot send before it ends, even though its completion
// event is already queued). Never lower than NextEventTime, so a
// confused oracle can only cost performance, not correctness. An
// infinite promise is honored only when the queue really is empty: a
// partition with queued events always reports a finite bound, so an
// oracle bug can never make the engine skip over live work.
func (e *Env) EarliestOutput() float64 {
	nt, ok := e.NextEventTime()
	if !ok {
		return math.Inf(1)
	}
	if e.oracle != nil {
		if b := e.oracle.EarliestOutputTime(); b > nt && !math.IsInf(b, 1) {
			return b
		}
	}
	return nt
}

// CheckDeadlock reports parked processes on a drained environment; the
// parallel engine calls it once every partition has run out of events
// and no inter-partition messages remain.
func (e *Env) CheckDeadlock() error { return e.deadlockError() }

// deadlockError reports parked processes after the event queue drained.
func (e *Env) deadlockError() error {
	var stuck []*Proc
	for _, p := range e.procs {
		if p.state == StateParked {
			stuck = append(stuck, p)
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	sort.Slice(stuck, func(i, j int) bool { return stuck[i].id < stuck[j].id })
	msg := "sim: deadlock, parked processes:"
	for _, p := range stuck {
		msg += fmt.Sprintf(" %q(%s)", p.name, p.parkReason)
	}
	return fmt.Errorf("%s", msg)
}

// Procs returns all processes ever spawned in the environment.
func (e *Env) Procs() []*Proc { return e.procs }
