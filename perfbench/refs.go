package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// relTol is the relative tolerance of every numeric comparison against the
// references. Last-digit floating-point changes (reordered sums, a
// different processor-sharing update) move results by 1e-12 or less,
// while any change to the cost, power or network model moves them by far
// more than 1e-6. A value printed with few digits may in addition differ
// by one unit of its last printed digit, since a last-bit change can
// flip its rounding.
const relTol = 1e-6

// jobRef is the reference outcome of one simulated job.
type jobRef struct {
	Wall     float64 `json:"wall_s"`
	Energy   float64 `json:"energy_j"`
	BytesMem float64 `json:"bytes_mem"`
}

func refOf(u machine.Usage) jobRef {
	return jobRef{Wall: u.Wall, Energy: u.ChipEnergy + u.DRAMEnergy, BytesMem: u.BytesMem}
}

// matches reports whether got agrees with the reference within relTol.
func (r jobRef) matches(got jobRef) bool {
	return near(r.Wall, got.Wall, 0) && near(r.Energy, got.Energy, 0) && near(r.BytesMem, got.BytesMem, 0)
}

// near compares a value with its reference; unit is the size of the last
// printed digit of the reference (0 for values kept at full precision).
func near(ref, got, unit float64) bool {
	return math.Abs(ref-got) <= relTol*math.Abs(ref)+unit
}

// jobName identifies a job in the reference file.
func jobName(rs spec.RunSpec) string {
	return fmt.Sprintf("%s/%s/%s/%d/steps=%d", rs.Class, rs.Benchmark, rs.Cluster.Name, rs.Ranks, rs.Options.SimSteps)
}

const jobsFile = "jobs.json"

func loadJobRefs(dir string) (map[string]jobRef, error) {
	data, err := os.ReadFile(filepath.Join(dir, jobsFile))
	if err != nil {
		return nil, fmt.Errorf("reading job references: %w", err)
	}
	refs := map[string]jobRef{}
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", jobsFile, err)
	}
	return refs, nil
}

// numPrefix matches the number a CSV cell starts with; the rest of the
// cell (a unit such as "x" or " MHz") must match the reference exactly.
var numPrefix = regexp.MustCompile(`^[-+]?(\d+\.?(\d*)|\.(\d+))([eE]([-+]?\d+))?`)

// cellMatches compares one CSV cell with its reference cell.
func cellMatches(ref, got string) bool {
	if ref == got {
		return true
	}
	rm, gm := numPrefix.FindStringSubmatch(ref), numPrefix.FindStringSubmatch(got)
	if rm == nil || gm == nil || ref[len(rm[0]):] != got[len(gm[0]):] {
		return false
	}
	rv, err1 := strconv.ParseFloat(rm[0], 64)
	gv, err2 := strconv.ParseFloat(gm[0], 64)
	if err1 != nil || err2 != nil {
		return false
	}
	decimals := len(rm[2]) + len(rm[3])
	exp := 0
	if rm[5] != "" {
		exp, _ = strconv.Atoi(rm[5])
	}
	return near(rv, gv, math.Pow(10, float64(exp-decimals)))
}

// compareCSV checks one artifact against its reference cell by cell.
func compareCSV(refPath, gotPath string) error {
	ref, err := readCSV(refPath)
	if err != nil {
		return err
	}
	got, err := readCSV(gotPath)
	if err != nil {
		return err
	}
	if len(ref) != len(got) {
		return fmt.Errorf("%s: %d rows, reference has %d", filepath.Base(gotPath), len(got), len(ref))
	}
	for i := range ref {
		if len(ref[i]) != len(got[i]) {
			return fmt.Errorf("%s row %d: %d cells, reference has %d", filepath.Base(gotPath), i, len(got[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if !cellMatches(ref[i][j], got[i][j]) {
				return fmt.Errorf("%s row %d col %d: got %q, reference %q", filepath.Base(gotPath), i, j, got[i][j], ref[i][j])
			}
		}
	}
	return nil
}

func readCSV(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	return r.ReadAll()
}

// csvNames lists the CSV files of a directory, sorted.
func csvNames(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	sort.Strings(names)
	return names, nil
}

// record regenerates every reference from the current code: the paper's
// CSV artifacts and the outcome of every job the lone-jobs and serve-jobs
// workloads can issue. Run it only when a change to the model is meant to
// change results, and say so in the change.
func record(dir string, nproc int) error {
	paperDir := filepath.Join(dir, "paper")
	if err := os.RemoveAll(paperDir); err != nil {
		return err
	}
	if _, err := regenerate(newPaperEngine(nproc, nil, nil), paperDir, paperExperiments(nil, 0), nil, nil); err != nil {
		return err
	}
	refs := map[string]jobRef{}
	for _, rs := range append(loneJobs(), universe()...) {
		res, err := spec.Run(rs)
		if err != nil {
			return err
		}
		refs[jobName(rs)] = refOf(res.Usage)
	}
	data, err := jsonIndent(refs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, jobsFile), data, 0o644)
}
