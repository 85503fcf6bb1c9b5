package machine

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/sim"
)

// System is the runtime instance of a cluster for one simulated job: it
// owns the per-domain bandwidth resources and all performance/energy
// accounting for a set of block-mapped MPI ranks.
type System struct {
	env   *sim.Env
	spec  *ClusterSpec
	ranks int
	nodes int

	memRes []*sim.PSResource // one per ccNUMA domain of allocated nodes
	l3Res  []*sim.PSResource

	rank []RankStats
	// bound tracks each rank's in-progress compute phase for the
	// adaptive-lookahead oracle; see PhaseEndFloor.
	bound []computeBound

	finished bool
	wall     float64
}

// computeBound is the conservative promise a rank makes while inside
// Compute: the phase cannot end before the fixed in-core time elapses
// nor before its L3/memory flows can possibly drain. All fields are
// zero outside a compute phase.
type computeBound struct {
	until   float64
	l3, mem *sim.Flow
}

// RankStats accumulates raw counters for one rank. All quantities are
// extensive (sums over the simulated run).
type RankStats struct {
	// Placement caches the rank's location.
	Placement Placement

	// FlopsScalar and FlopsSIMD count executed DP flops by instruction kind.
	FlopsScalar float64
	FlopsSIMD   float64

	// BytesL2, BytesL3, BytesMem count data traffic at each level.
	BytesL2  float64
	BytesL3  float64
	BytesMem float64

	// TimeExec is in-core execution time; TimeStall is compute-phase time
	// beyond the in-core time (waiting for shared L3/memory); TimeMPI is
	// time spent blocked inside MPI calls.
	TimeExec  float64
	TimeStall float64
	TimeMPI   float64

	// EnergyDyn is the accumulated per-core dynamic energy (J), i.e.
	// everything above the socket baseline attributable to this core.
	EnergyDyn float64

	// Finish is the virtual time the rank completed its program.
	Finish float64
}

// NewSystem allocates a runtime for n block-mapped ranks on the cluster.
// It panics if n exceeds the cluster capacity, which is a configuration
// error the caller must prevent.
func NewSystem(env *sim.Env, spec *ClusterSpec, n int) *System {
	if n <= 0 {
		panic("machine: NewSystem with no ranks")
	}
	if n > spec.MaxRanks() {
		panic(fmt.Sprintf("machine: %d ranks exceed %s capacity %d", n, spec.Name, spec.MaxRanks()))
	}
	s := &System{}
	s.Reinit(env, spec, n)
	return s
}

// domNames caches per-domain resource names for common domain counts so
// per-job system construction does not Sprintf.
var domNames = func() (d struct{ mem, l3 [128]string }) {
	for i := range d.mem {
		d.mem[i] = fmt.Sprintf("mem-dom%d", i)
		d.l3[i] = fmt.Sprintf("l3-dom%d", i)
	}
	return
}()

func domName(mem bool, i int) string {
	if i < len(domNames.mem) {
		if mem {
			return domNames.mem[i]
		}
		return domNames.l3[i]
	}
	if mem {
		return fmt.Sprintf("mem-dom%d", i)
	}
	return fmt.Sprintf("l3-dom%d", i)
}

// Reinit repoints a pooled System at a new serial environment; see
// ReinitRouted for the partition-aware form.
func (s *System) Reinit(env *sim.Env, spec *ClusterSpec, n int) {
	s.ReinitRouted(sim.UniRouter{E: env}, spec, n)
}

// ReinitRouted repoints a pooled System at a new router, cluster, and
// rank count, reusing the per-domain resource structs and the rank-stats
// slice from previous runs. It resets all accounting to the zero state,
// so a reinitialized System is observationally identical to a fresh one.
// Each ccNUMA domain's L3/memory resources live on the environment of
// the node holding it, so compute phases never touch another partition.
func (s *System) ReinitRouted(rt sim.Router, spec *ClusterSpec, n int) {
	if n <= 0 {
		panic("machine: NewSystem with no ranks")
	}
	if n > spec.MaxRanks() {
		panic(fmt.Sprintf("machine: %d ranks exceed %s capacity %d", n, spec.Name, spec.MaxRanks()))
	}
	s.env, s.spec, s.ranks, s.nodes = rt.NodeEnv(0), spec, n, spec.NodesFor(n)
	s.finished, s.wall = false, 0
	cpu := &spec.CPU
	dpn := cpu.DomainsPerNode()
	domains := s.nodes * dpn
	// The resource slices keep their high-water length across reuses so a
	// campaign oscillating between job shapes never reconstructs them;
	// only the first `domains` entries are live for this job.
	for len(s.memRes) < domains {
		d := len(s.memRes)
		env := rt.NodeEnv(d / dpn)
		s.memRes = append(s.memRes, sim.NewPSResource(env, domName(true, d),
			cpu.MemSaturatedPerDomain, cpu.MemPerCoreMax))
		s.l3Res = append(s.l3Res, sim.NewPSResource(env, domName(false, d),
			cpu.L3BandwidthPerDomain, cpu.L3BandwidthPerCoreMax))
	}
	for d := 0; d < domains; d++ {
		env := rt.NodeEnv(d / dpn)
		s.memRes[d].Reinit(env, domName(true, d), cpu.MemSaturatedPerDomain, cpu.MemPerCoreMax)
		s.l3Res[d].Reinit(env, domName(false, d), cpu.L3BandwidthPerDomain, cpu.L3BandwidthPerCoreMax)
	}
	for len(s.rank) < n {
		s.rank = append(s.rank, RankStats{})
	}
	s.rank = s.rank[:n]
	for r := range s.rank {
		s.rank[r] = RankStats{Placement: spec.Place(r)}
	}
	for len(s.bound) < n {
		s.bound = append(s.bound, computeBound{})
	}
	s.bound = s.bound[:n]
	for r := range s.bound {
		s.bound[r] = computeBound{}
	}
}

// Env returns the simulation environment.
func (s *System) Env() *sim.Env { return s.env }

// Spec returns the cluster specification.
func (s *System) Spec() *ClusterSpec { return s.spec }

// Ranks returns the number of ranks in the job.
func (s *System) Ranks() int { return s.ranks }

// Nodes returns the number of allocated nodes.
func (s *System) Nodes() int { return s.nodes }

// Compute executes one compute phase for a rank, advancing virtual time
// according to the ECM-style cost model: the in-core part (flop streams at
// calibrated efficiency plus private L2 traffic, times the core penalty)
// overlaps with shared L3 and DRAM transfers on the rank's ccNUMA domain.
// The phase ends when the slowest of the three finishes.
func (s *System) Compute(p *sim.Proc, rank int, ph Phase) {
	ph = ph.withDefaults()
	st := &s.rank[rank]
	cpu := &s.spec.CPU
	dom := st.Placement.GlobalDomain

	tCore := ph.FlopsSIMD/(cpu.SIMDPeakPerCore()*ph.SIMDEff) +
		ph.FlopsScalar/(cpu.ScalarPeakPerCore()*ph.ScalarEff)
	// Irregular/gather-heavy work runs at the CPU's irregular-access
	// efficiency; regular streams at nominal speed.
	irrEff := cpu.IrregularAccessEff
	if irrEff <= 0 {
		irrEff = 1
	}
	tCore *= ph.IrregularFrac/irrEff + (1 - ph.IrregularFrac)
	tL2 := ph.BytesL2 / cpu.L2BandwidthPerCore
	tFixed := tCore*ph.CorePenalty + tL2

	start := p.Now()
	var l3Flow, memFlow *sim.Flow
	if ph.BytesL3 > 0 {
		l3Flow = s.l3Res[dom].StartFlowArg(ph.BytesL3, nil, nil)
	}
	if ph.BytesMem > 0 {
		memFlow = s.memRes[dom].StartFlowArg(ph.BytesMem, nil, nil)
	}
	s.bound[rank] = computeBound{until: start + tFixed, l3: l3Flow, mem: memFlow}
	if tFixed > 0 {
		p.Wait(tFixed)
	}
	if l3Flow != nil {
		l3Flow.Await(p)
	}
	if memFlow != nil {
		memFlow.Await(p)
	}
	s.bound[rank] = computeBound{}
	dur := p.Now() - start
	stall := dur - tFixed
	if stall < 0 {
		stall = 0
	}

	st.FlopsScalar += ph.FlopsScalar
	st.FlopsSIMD += ph.FlopsSIMD
	st.BytesL2 += ph.BytesL2
	st.BytesL3 += ph.BytesL3
	st.BytesMem += ph.BytesMem
	st.TimeExec += tFixed
	st.TimeStall += stall
	st.EnergyDyn += ph.HeatFrac*cpu.CoreDynMaxPower*tFixed + cpu.CoreStallPower*stall
}

// PhaseEndFloor returns a lower bound on the virtual time the rank's
// in-progress compute phase can end: the fixed in-core deadline and the
// earliest possible finish of its L3/memory flows, whichever is latest.
// The flow bounds self-refresh as resources drain (Flow.EarliestFinish
// accounts accrued work), so a stale promise tightens at every barrier
// rather than pinning the window. Only meaningful while the rank is
// inside Compute; the MPI oracle guards on its own park state.
func (s *System) PhaseEndFloor(rank int) float64 {
	b := &s.bound[rank]
	t := b.until
	if b.l3 != nil {
		if ef := b.l3.EarliestFinish(); ef > t {
			t = ef
		}
	}
	if b.mem != nil {
		if ef := b.mem.EarliestFinish(); ef > t {
			t = ef
		}
	}
	return t
}

// AccountMPI charges dt seconds of MPI busy-wait time (and its power) to a
// rank. The MPI layer calls this for every blocking interval.
func (s *System) AccountMPI(rank int, dt float64) {
	if dt <= 0 {
		return
	}
	st := &s.rank[rank]
	st.TimeMPI += dt
	st.EnergyDyn += s.spec.CPU.CoreMPIPower * dt
}

// RankFinished records the completion time of a rank's program. It only
// touches the rank's own stats slot — the job wall-clock is derived in
// Finish — so ranks on concurrently advancing partitions never share a
// write.
func (s *System) RankFinished(rank int, t float64) {
	if t > s.rank[rank].Finish {
		s.rank[rank].Finish = t
	}
}

// Finish closes accounting; must be called after the event loop returns.
// The job wall-clock is the latest rank finish time.
func (s *System) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	for r := range s.rank {
		if f := s.rank[r].Finish; f > s.wall {
			s.wall = f
		}
	}
	if s.wall == 0 {
		s.wall = s.env.Now()
	}
}

// Wall returns the job wall-clock (virtual) time: the latest rank finish.
func (s *System) Wall() float64 { return s.wall }

// RankStats returns a copy of the raw counters for one rank.
func (s *System) RankStats(rank int) RankStats { return s.rank[rank] }

// MemDomainResource exposes the memory PS resource of a global domain
// (used by tests and ablation benches).
func (s *System) MemDomainResource(d int) *sim.PSResource { return s.memRes[d] }
