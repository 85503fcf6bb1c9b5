package hpgmgfv

import (
	"math"
	"sync/atomic"
)

// multigrid is a real 3D geometric multigrid solver for the Poisson
// problem -lap(u) = f with Dirichlet walls on a small cube:
// damped-Jacobi smoothing, full-weighting restriction, constant
// prolongation, V-cycles. Its measurable contraction factor per cycle is
// the kernel's validation invariant.
type multigrid struct {
	levels []*level
}

// level is one grid of the hierarchy (cube of side n, no ghosts; walls
// are implicit zeros).
type level struct {
	n       int
	u, f, r []float64
}

func newLevel(n int) *level {
	size := n * n * n
	return &level{
		n: n,
		u: make([]float64, size),
		f: make([]float64, size),
		r: make([]float64, size),
	}
}

func (l *level) idx(i, j, k int) int { return (k*l.n+j)*l.n + i }

// at returns u with Dirichlet-zero walls.
func (l *level) at(u []float64, i, j, k int) float64 {
	if i < 0 || i >= l.n || j < 0 || j >= l.n || k < 0 || k >= l.n {
		return 0
	}
	return u[l.idx(i, j, k)]
}

// multigridsBuilt counts newMultigrid calls, so tests can pin how many
// real solves a job runs. It is atomic because jobs run concurrently.
var multigridsBuilt atomic.Int64

// newMultigrid builds a hierarchy from side n (a power of two) down to 4.
func newMultigrid(n int) *multigrid {
	multigridsBuilt.Add(1)
	mg := &multigrid{}
	for d := n; d >= 4; d /= 2 {
		mg.levels = append(mg.levels, newLevel(d))
	}
	fine := mg.levels[0]
	h := 1.0 / float64(n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) * h
				y := (float64(j) + 0.5) * h
				z := (float64(k) + 0.5) * h
				fine.f[fine.idx(i, j, k)] =
					math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
			}
		}
	}
	return mg
}

// smooth applies sweeps of red-black Gauss-Seidel (the smoother HPGMG
// itself uses): each sweep updates the red parity then the black parity
// in place, which damps the high frequencies prolongation introduces far
// better than Jacobi.
func (l *level) smooth(sweeps int) {
	h2 := 1.0 / float64(l.n*l.n)
	for s := 0; s < sweeps; s++ {
		for parity := 0; parity < 2; parity++ {
			for k := 0; k < l.n; k++ {
				for j := 0; j < l.n; j++ {
					// Step straight to the cells of this parity (same
					// visit order as filtering every i).
					for i := (parity + j + k) % 2; i < l.n; i += 2 {
						nb := l.at(l.u, i-1, j, k) + l.at(l.u, i+1, j, k) +
							l.at(l.u, i, j-1, k) + l.at(l.u, i, j+1, k) +
							l.at(l.u, i, j, k-1) + l.at(l.u, i, j, k+1)
						l.u[l.idx(i, j, k)] = (nb + h2*l.f[l.idx(i, j, k)]) / 6
					}
				}
			}
		}
	}
}

// residual computes r = f - A u with A = -lap (scaled by 1/h^2).
func (l *level) residual() {
	invH2 := float64(l.n * l.n)
	for k := 0; k < l.n; k++ {
		for j := 0; j < l.n; j++ {
			for i := 0; i < l.n; i++ {
				id := l.idx(i, j, k)
				lap := l.at(l.u, i-1, j, k) + l.at(l.u, i+1, j, k) +
					l.at(l.u, i, j-1, k) + l.at(l.u, i, j+1, k) +
					l.at(l.u, i, j, k-1) + l.at(l.u, i, j, k+1) -
					6*l.u[id]
				l.r[id] = l.f[id] + lap*invH2
			}
		}
	}
}

// restrictTo full-weights this level's residual into the coarse f.
func (l *level) restrictTo(coarse *level) {
	for k := 0; k < coarse.n; k++ {
		for j := 0; j < coarse.n; j++ {
			for i := 0; i < coarse.n; i++ {
				var sum float64
				for dk := 0; dk < 2; dk++ {
					for dj := 0; dj < 2; dj++ {
						for di := 0; di < 2; di++ {
							sum += l.r[l.idx(2*i+di, 2*j+dj, 2*k+dk)]
						}
					}
				}
				coarse.f[coarse.idx(i, j, k)] = sum / 8
				coarse.u[coarse.idx(i, j, k)] = 0
			}
		}
	}
}

// prolongAdd adds the trilinearly interpolated coarse correction into
// this level's u (cell-centered 3/4-1/4 weights per dimension, clamped
// at the walls).
func (l *level) prolongAdd(coarse *level) {
	interp := func(i int) (a, b int, wa float64) {
		base := i / 2
		var nb int
		if i%2 == 0 {
			nb = base - 1
		} else {
			nb = base + 1
		}
		if nb < 0 || nb >= coarse.n {
			nb = base
		}
		return base, nb, 0.75
	}
	for k := 0; k < l.n; k++ {
		k0, k1, wk := interp(k)
		for j := 0; j < l.n; j++ {
			j0, j1, wj := interp(j)
			for i := 0; i < l.n; i++ {
				i0, i1, wi := interp(i)
				var v float64
				for _, ci := range [2]struct {
					idx int
					w   float64
				}{{i0, wi}, {i1, 1 - wi}} {
					for _, cj := range [2]struct {
						idx int
						w   float64
					}{{j0, wj}, {j1, 1 - wj}} {
						for _, ck := range [2]struct {
							idx int
							w   float64
						}{{k0, wk}, {k1, 1 - wk}} {
							v += ci.w * cj.w * ck.w *
								coarse.u[coarse.idx(ci.idx, cj.idx, ck.idx)]
						}
					}
				}
				l.u[l.idx(i, j, k)] += v
			}
		}
	}
}

// vCycle runs one V-cycle over the hierarchy.
func (mg *multigrid) vCycle() { mg.cycle(0) }

func (mg *multigrid) cycle(li int) {
	l := mg.levels[li]
	if li == len(mg.levels)-1 {
		l.smooth(12) // coarse "solve"
		return
	}
	l.smooth(3)
	l.residual()
	l.restrictTo(mg.levels[li+1])
	mg.cycle(li + 1)
	l.prolongAdd(mg.levels[li+1])
	l.smooth(3)
}

// residualNorm returns the L2 norm of the finest-level residual.
func (mg *multigrid) residualNorm() float64 {
	fine := mg.levels[0]
	fine.residual()
	var sum float64
	for _, v := range fine.r {
		sum += v * v
	}
	return math.Sqrt(sum)
}
