// Package hpgmgfv implements the 534.hpgmgfv_t / 634.hpgmgfv_s benchmark:
// finite-volume-based high-performance geometric multigrid solving
// variable-coefficient elliptic problems on Cartesian grids (cosmology,
// astrophysics, combustion).
//
// The paper's characterization: memory-bound but only weakly saturating —
// it "becomes less memory-bound with more cores" because the coarse
// multigrid levels live in cache. Multi-node it is the canonical Case C:
// memory traffic drops with node count (cache capture), but the expected
// superlinear speedup is eaten by communication overhead — every level of
// every V-cycle exchanges halos, and the coarse levels send many tiny,
// latency-bound messages.
//
// Every rank charges the machine model its strong-scaled share of the
// paper-scale work and sends the per-level halo traffic. Only rank 0 also
// runs a real scaled-down multigrid solve: it is the verification problem
// behind the kernel's checks, and no other rank's result would reach one.
package hpgmgfv

import (
	"math"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
)

type config struct {
	boxLog2  int // log2 of box dimension (Table 1: 5 -> 32^3 boxes)
	gridLog2 int // log2 of grid dimension (9 -> 512^3 total, tiny)
	steps    int
}

func configFor(c bench.Class) config {
	switch c {
	case bench.Tiny:
		return config{boxLog2: 5, gridLog2: 9, steps: 300}
	default:
		return config{boxLog2: 5, gridLog2: 10, steps: 300}
	}
}

const (
	flopsPerCell  = 90.0 // smoother + residual + transfers, fine-grid equivalent
	simdFraction  = 0.948
	simdEff       = 0.23
	scalarEff     = 0.40
	bytesPerCell  = 150.0
	l2PerCell     = 260.0
	l3PerCell     = 200.0
	hotArrays     = 3
	cacheableFrac = 0.48
	heatFrac      = 0.76
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:          34,
		Name:        "hpgmgfv",
		Language:    "C",
		LOC:         16700,
		Collective:  "Allreduce",
		Numerics:    "Finite-volume geometric multigrid, variable coefficients",
		Domain:      "Cosmology, astrophysics, combustion",
		MemoryBound: true,
		VectorPct:   94.8,
		Run:         run,
	})
}

func run(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
	cfg := configFor(c)
	simSteps := o.SimSteps
	if simSteps <= 0 {
		simSteps = 2
	}
	if simSteps > cfg.steps {
		simSteps = cfg.steps
	}

	p := r.Size()
	px, py, pz := bench.Grid3D(p)
	dim := 1 << cfg.gridLog2
	cellsGlobal := float64(dim) * float64(dim) * float64(dim)
	cells := cellsGlobal / float64(p)

	// Levels continue down to 4^3 boxes; coarse levels carry 1/8 of the
	// work of the level above.
	localDim := float64(dim) / math.Cbrt(float64(p))
	levels := 0
	for d := localDim; d >= 4; d /= 2 {
		levels++
	}
	if levels < 1 {
		levels = 1
	}

	// Per-level cache model: each level's working set is 8x smaller than
	// the one above, so coarse levels live in cache while the fine level
	// streams. As ranks are added, progressively finer levels start to
	// fit — hpgmgfv's falling memory volume (the cache-effect half of the
	// paper's Case C).
	cache := bench.CachePerRank(r.Cluster(), p, r.ID())
	var workSum, memSum, fineSpill float64
	for l := 0; l < levels; l++ {
		w := math.Pow(0.125, float64(l))
		lvlCells := cells * w
		spill := machine.CacheFit(lvlCells*8*hotArrays, cache)
		if l == 0 {
			fineSpill = spill
		}
		workSum += w
		memSum += w * ((1 - cacheableFrac) + cacheableFrac*spill)
	}
	memFactor := memSum / workSum

	phase := machine.Phase{
		Name:        "v-cycle",
		FlopsSIMD:   flopsPerCell * workSum * simdFraction * cells,
		FlopsScalar: flopsPerCell * workSum * (1 - simdFraction) * cells,
		SIMDEff:     simdEff,
		ScalarEff:   scalarEff,
		BytesMem:    bytesPerCell * workSum * cells * memFactor,
		BytesL2:     l2PerCell * workSum * cells,
		BytesL3:     l3PerCell * workSum * cells * (1 + 0.4*(1-fineSpill)),
		HeatFrac:    heatFrac,
	}

	// Rank coordinates in the 3D grid (x fastest), z-neighbors exchange
	// real digests.
	cx := r.ID() % px
	cy := (r.ID() / px) % py
	cz := r.ID() / (px * py)
	rank3 := func(x, y, z int) int {
		if x < 0 || x >= px || y < 0 || y >= py || z < 0 || z >= pz {
			return -1
		}
		return (z*py+y)*px + x
	}

	// Real multigrid solve on a small grid: rank 0's verification problem.
	var mg *multigrid
	if r.ID() == 0 {
		mg = newMultigrid(16)
	}
	var contraction float64

	exchange := func(dst, src int, payload []float64, modelBytes float64, tag int) {
		switch {
		case dst < 0 && src < 0:
		case dst < 0:
			r.Recv(src, tag)
		case src < 0:
			r.Send(dst, tag, payload, modelBytes)
		default:
			r.Sendrecv(dst, tag, payload, modelBytes, src, tag)
		}
	}

	for step := 0; step < simSteps; step++ {
		// Halo traffic of one V-cycle: two smoother applications per
		// level on the way down and up.
		for lvl := 0; lvl < levels; lvl++ {
			shrink := math.Pow(0.25, float64(lvl))
			face := localDim * localDim * 8 * shrink
			digest := []float64{float64(lvl)}
			for pass := 0; pass < 2; pass++ {
				tag := 300 + lvl*8 + pass*4
				exchange(rank3(cx+1, cy, cz), rank3(cx-1, cy, cz), digest, face, tag)
				exchange(rank3(cx-1, cy, cz), rank3(cx+1, cy, cz), digest, face, tag+1)
				exchange(rank3(cx, cy+1, cz), rank3(cx, cy-1, cz), digest, face, tag+2)
				exchange(rank3(cx, cy-1, cz), rank3(cx, cy+1, cz), digest, face, tag+3)
			}
		}
		// The other ranks contribute 0 to the residual Allreduce; its
		// sum is never read, so timing cannot depend on it.
		var after float64
		if mg != nil {
			before := mg.residualNorm()
			mg.vCycle()
			after = mg.residualNorm()
			if before > 0 {
				contraction = after / before
			}
		}
		r.Compute(phase)
		// Global residual norm: the Allreduce of Table 1.
		r.Allreduce([]float64{after * after}, 8, mpi.OpSum)
	}

	rep := bench.RunReport{StepsModeled: cfg.steps, StepsSimulated: simSteps}
	if r.ID() == 0 {
		rep.Checks = append(rep.Checks,
			// The first cycle carries a prolongation transient (~0.6);
			// the asymptotic rate (~0.25) is exercised by the package
			// tests over multiple cycles.
			bench.Check{
				Name:  "v-cycle contraction",
				Value: contraction,
				OK:    contraction > 0 && contraction < 0.7,
			},
			bench.Check{
				Name:  "residual finite",
				Value: mg.residualNorm(),
				OK:    !math.IsNaN(mg.residualNorm()),
			})
	}
	return rep, nil
}
