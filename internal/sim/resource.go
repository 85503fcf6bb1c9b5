package sim

import (
	"fmt"
	"math"
	"sort"
)

// PSResource is a processor-sharing resource in virtual time: a service
// capacity (e.g. bytes/s of a ccNUMA memory domain, or of a network link)
// shared fairly among all active flows, with an optional per-flow rate cap
// (e.g. the bandwidth a single core can draw).
//
// Rates follow water-filling fairness: every flow gets an equal share of the
// remaining capacity, but never more than FlowCap; capacity unused by capped
// flows is redistributed to the rest. Whenever the set of active flows
// changes, remaining work is advanced at the old rates and completion events
// are rescheduled at the new rates. This is the mechanism that produces
// bandwidth-saturation speedup curves for memory-bound kernels.
type PSResource struct {
	env *Env
	// Name identifies the resource in diagnostics.
	Name string
	// Capacity is the aggregate service rate (units/s) of the resource.
	Capacity float64
	// FlowCap limits the rate of a single flow (units/s); 0 means no cap.
	FlowCap float64

	flows      []*Flow
	lastUpdate float64
	// parkTransfer and parkAwait are the Park reasons for blocked
	// processes, precomputed so the hot path does not build strings.
	parkTransfer string
	parkAwait    string
}

// Flow is an in-flight transfer on a PSResource.
type Flow struct {
	res       *PSResource
	remaining float64
	rate      float64
	proc      *Proc
	completed bool
	doneArg   func(any) // completion callback (StartFlowArg)
	arg       any
	ev        Event
}

// EarliestFinish returns a lower bound on the virtual time at which the
// flow can complete: the remaining work served at the fastest rate the
// resource could ever grant one flow (full capacity, capped by FlowCap).
// Unlike the currently scheduled completion event — which water-filling
// rescheduling can move EARLIER when competing flows finish — this bound
// is sound under any future contention, so the adaptive-lookahead oracle
// may promise it across window barriers. Completed flows return -Inf.
func (f *Flow) EarliestFinish() float64 {
	if f.completed {
		return math.Inf(-1)
	}
	r := f.res
	rate := r.Capacity
	if r.FlowCap > 0 && r.FlowCap < rate {
		rate = r.FlowCap
	}
	// remaining is accrued as of lastUpdate; work done since then only
	// brings the true finish closer to (never below) this bound.
	return r.lastUpdate + f.remaining/rate
}

// NewPSResource creates a processor-sharing resource. Capacity must be
// positive; flowCap <= 0 means individual flows are limited only by the
// total capacity.
func NewPSResource(env *Env, name string, capacity, flowCap float64) *PSResource {
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("sim: PSResource %q with non-positive capacity %v", name, capacity))
	}
	return &PSResource{
		env: env, Name: name, Capacity: capacity, FlowCap: flowCap,
		parkTransfer: "transfer on " + name,
		parkAwait:    "await flow on " + name,
	}
}

// Reinit repoints a pooled resource at a new environment and parameters,
// keeping its allocated flow-list capacity and — when the name is
// unchanged — its precomputed park-reason strings. It is the zero-cost
// counterpart of NewPSResource for job-state pools that recycle whole
// machine/network instances across simulation runs.
func (r *PSResource) Reinit(env *Env, name string, capacity, flowCap float64) {
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("sim: PSResource %q with non-positive capacity %v", name, capacity))
	}
	r.env = env
	r.Capacity, r.FlowCap = capacity, flowCap
	r.flows = r.flows[:0]
	r.lastUpdate = 0
	if r.Name != name {
		r.Name = name
		r.parkTransfer = "transfer on " + name
		r.parkAwait = "await flow on " + name
	}
}

// ActiveFlows returns the number of currently active flows.
func (r *PSResource) ActiveFlows() int { return len(r.flows) }

// CurrentRate returns the service rate currently granted to a single flow
// if n flows are active, following the same water-filling rule used for
// live flows. Useful for analytical probes and tests.
func (r *PSResource) CurrentRate(n int) float64 {
	if n <= 0 {
		return 0
	}
	share := r.Capacity / float64(n)
	if r.FlowCap > 0 && share > r.FlowCap {
		return r.FlowCap
	}
	return share
}

// Utilization returns the fraction of Capacity currently in service,
// in [0, 1].
func (r *PSResource) Utilization() float64 {
	r.advance()
	total := 0.0
	for _, f := range r.flows {
		total += f.rate
	}
	return total / r.Capacity
}

// Transfer moves amount units through the resource on behalf of process p,
// blocking p in virtual time until the transfer completes. A non-positive
// amount returns immediately.
func (r *PSResource) Transfer(p *Proc, amount float64) {
	if amount <= 0 {
		return
	}
	p.mustBeCurrent("PSResource.Transfer")
	f := r.startFlow(amount, p, nil, nil)
	for !f.completed {
		p.Park(r.parkTransfer)
	}
}

// StartFlowArg begins an asynchronous transfer of amount units and
// returns the flow handle. The optional fn(arg) fires on the scheduler
// when the flow completes; with fn a top-level function the call
// allocates nothing beyond the flow itself (which comes from the
// environment's bump arena). Use Flow.Await from a process to block on
// completion.
func (r *PSResource) StartFlowArg(amount float64, fn func(any), arg any) *Flow {
	if amount <= 0 {
		f := r.env.allocFlow()
		f.res, f.completed = r, true
		if fn != nil {
			r.env.AfterArg(0, fn, arg)
		}
		return f
	}
	return r.startFlow(amount, nil, fn, arg)
}

func (r *PSResource) startFlow(amount float64, p *Proc, fn func(any), arg any) *Flow {
	r.advance()
	f := r.env.allocFlow()
	f.res, f.remaining, f.proc, f.doneArg, f.arg = r, amount, p, fn, arg
	r.flows = append(r.flows, f)
	r.reschedule()
	return f
}

// Await blocks process p until the flow completes.
func (f *Flow) Await(p *Proc) {
	p.mustBeCurrent("Flow.Await")
	if f.completed {
		return
	}
	if f.proc != nil && f.proc != p {
		panic("sim: Flow.Await by a second process")
	}
	f.proc = p
	for !f.completed {
		p.Park(f.res.parkAwait)
	}
}

// Completed reports whether the flow has finished.
func (f *Flow) Completed() bool { return f.completed }

// Remaining returns the amount of work left in the flow as of the last
// resource update (call Utilization or start/finish a flow to force one).
func (f *Flow) Remaining() float64 { return f.remaining }

// advance accrues progress on all flows at the rates fixed since the last
// set change.
func (r *PSResource) advance() {
	now := r.env.now
	dt := now - r.lastUpdate
	if dt > 0 {
		for _, f := range r.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	r.lastUpdate = now
}

// reschedule recomputes water-filling rates and completion events for all
// active flows. Must be called with progress already advanced.
func (r *PSResource) reschedule() {
	n := len(r.flows)
	if n == 0 {
		return
	}
	// Water-filling: all flows capped at FlowCap; leftover capacity from
	// capped flows is redistributed among the others. With identical caps a
	// single pass suffices: rate = min(FlowCap, Capacity/n) leaves capacity
	// unused only if all flows are capped, in which case no redistribution
	// is possible anyway.
	rate := r.Capacity / float64(n)
	if r.FlowCap > 0 && rate > r.FlowCap {
		rate = r.FlowCap
	}
	for _, f := range r.flows {
		f.rate = rate
		eta := r.env.now + f.remaining/rate
		f.ev = r.env.retimeFlow(f.ev, eta, f)
	}
}

// complete finishes a flow: removes it from the active set, re-shares
// capacity among the remaining flows, and wakes the waiting process.
func (r *PSResource) complete(f *Flow) {
	r.advance()
	idx := -1
	for i, g := range r.flows {
		if g == f {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // already removed (spurious cancelled event)
	}
	r.flows = append(r.flows[:idx], r.flows[idx+1:]...)
	f.completed = true
	f.remaining = 0
	f.rate = 0
	f.ev = Event{}
	r.reschedule()
	if f.proc != nil && f.proc.state == StateParked {
		r.env.Wake(f.proc)
	} else if f.proc != nil {
		f.proc.wakeTokens++
	}
	if f.doneArg != nil {
		f.doneArg(f.arg)
	}
}

// Semaphore is a counting semaphore in virtual time with FIFO wakeup order.
// It models exclusive or limited-concurrency resources (e.g. a NIC engine).
type Semaphore struct {
	env     *Env
	Name    string
	tokens  int
	waiters []*Proc
	parkMsg string
}

// NewSemaphore creates a semaphore with the given initial token count.
func NewSemaphore(env *Env, name string, tokens int) *Semaphore {
	if tokens < 0 {
		panic(fmt.Sprintf("sim: semaphore %q with negative tokens %d", name, tokens))
	}
	return &Semaphore{env: env, Name: name, tokens: tokens, parkMsg: "semaphore " + name}
}

// Acquire takes one token, blocking the process in virtual time until one
// is available. Wakeup order is FIFO.
func (s *Semaphore) Acquire(p *Proc) {
	p.mustBeCurrent("Semaphore.Acquire")
	if s.tokens > 0 && len(s.waiters) == 0 {
		s.tokens--
		return
	}
	s.waiters = append(s.waiters, p)
	for {
		p.Park(s.parkMsg)
		// We are only woken by Release after being granted a token and
		// removed from the queue; a defensive re-check keeps FIFO intact
		// under spurious wake tokens.
		granted := true
		for _, w := range s.waiters {
			if w == p {
				granted = false
				break
			}
		}
		if granted {
			return
		}
	}
}

// Release returns one token, waking the longest-waiting process if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = s.waiters[1:]
		if p.state == StateParked {
			s.env.Wake(p)
		} else {
			p.wakeTokens++
		}
		return
	}
	s.tokens++
}

// Available returns the number of free tokens.
func (s *Semaphore) Available() int { return s.tokens }

// sortFlowsByRemaining is a test helper ordering; exported logic does not
// depend on flow order, but deterministic diagnostics do.
func (r *PSResource) sortFlowsByRemaining() {
	sort.SliceStable(r.flows, func(i, j int) bool { return r.flows[i].remaining < r.flows[j].remaining })
}
