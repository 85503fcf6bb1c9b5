package bench

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/spechpc/spechpc-sim/internal/machine"
)

// TestParseClass pins the class names every front end accepts: the two
// paper classes in any case and spacing, empty as tiny, and nothing else.
func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"tiny", Tiny, true},
		{"small", Small, true},
		{"", Tiny, true},
		{" Small ", Small, true},
		{"TINY", Tiny, true},
		{"smal", 0, false},
		{"medium", 0, false},
		{"large", 0, false},
	}
	for _, c := range cases {
		got, err := ParseClass(c.in)
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "unknown class") {
				t.Errorf("ParseClass(%q) = %v, %v; want an unknown class error", c.in, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestSplit1DBalanced(t *testing.T) {
	cases := []struct {
		n, parts, idx, lo, hi int
	}{
		{10, 3, 0, 0, 4},
		{10, 3, 1, 4, 7},
		{10, 3, 2, 7, 10},
		{9, 3, 1, 3, 6},
	}
	for _, c := range cases {
		lo, hi := Split1D(c.n, c.parts, c.idx)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Split1D(%d,%d,%d) = [%d,%d), want [%d,%d)", c.n, c.parts, c.idx, lo, hi, c.lo, c.hi)
		}
	}
}

func TestSplit1DProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw)%10000 + 1
		parts := int(pRaw)%64 + 1
		prev := 0
		total := 0
		for i := 0; i < parts; i++ {
			lo, hi := Split1D(n, parts, i)
			if lo != prev || hi < lo {
				return false
			}
			if (hi-lo)-(n/parts) > 1 { // balanced: at most one extra
				return false
			}
			total += hi - lo
			prev = hi
		}
		return total == n && prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCeil1DProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw)%10000 + 1
		parts := int(pRaw)%64 + 1
		total := 0
		for i := 0; i < parts; i++ {
			lo, hi := SplitCeil1D(n, parts, i)
			if hi < lo {
				return false
			}
			total += hi - lo
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2D(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4},
		{71, 1, 71}, {72, 8, 9}, {104, 8, 13}, {36, 6, 6},
	}
	for _, c := range cases {
		px, py := Grid2D(c.p)
		if px != c.px || py != c.py {
			t.Errorf("Grid2D(%d) = (%d,%d), want (%d,%d)", c.p, px, py, c.px, c.py)
		}
	}
}

func TestGrid2DProperty(t *testing.T) {
	f := func(pRaw uint16) bool {
		p := int(pRaw)%2048 + 1
		px, py := Grid2D(p)
		return px*py == p && px <= py && px >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrid3DProperty(t *testing.T) {
	f := func(pRaw uint16) bool {
		p := int(pRaw)%2048 + 1
		a, b, c := Grid3D(p)
		return a*b*c == p && a <= b && b <= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2DDividing(t *testing.T) {
	// minisweep tiny grid is 96x64: 24 ranks must find (6,4) exactly.
	px, py, exact := Grid2DDividing(24, 96, 64)
	if !exact || 96%px != 0 || 64%py != 0 {
		t.Errorf("Grid2DDividing(24,96,64) = (%d,%d,%v), want exact divisors", px, py, exact)
	}
	// 26 ranks cannot divide 96x64 evenly.
	_, _, exact26 := Grid2DDividing(26, 96, 64)
	if exact26 {
		t.Error("Grid2DDividing(26,96,64) claimed exact division")
	}
}

func TestRanksInDomainAndCache(t *testing.T) {
	a := machine.ClusterA()
	// 20 ranks on ClusterA: domain 0 holds 18, domain 1 holds 2.
	if got := RanksInDomain(a, 20, 0); got != 18 {
		t.Errorf("ranks in domain of rank 0 = %d, want 18", got)
	}
	if got := RanksInDomain(a, 20, 19); got != 2 {
		t.Errorf("ranks in domain of rank 19 = %d, want 2", got)
	}
	// Cache per rank shrinks as the domain fills.
	sparse := CachePerRank(a, 2, 0)
	dense := CachePerRank(a, 72, 0)
	if sparse <= dense {
		t.Errorf("cache per rank did not shrink: sparse %v, dense %v", sparse, dense)
	}
}

func TestRegistryOrdering(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("registry not sorted by id: %v", Names())
		}
	}
}

func TestRunReport(t *testing.T) {
	rr := RunReport{StepsModeled: 600, StepsSimulated: 4}
	if rr.RepFactor() != 150 {
		t.Errorf("rep factor = %v, want 150", rr.RepFactor())
	}
	rr.Checks = []Check{{Name: "x", OK: true}, {Name: "y", OK: false}}
	if rr.Valid() {
		t.Error("report with failing check claimed valid")
	}
}
