package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// recordFormat is the schema generation of persisted Records. A store
// only serves records whose format matches; bump it when the Record
// layout (or the meaning of a persisted field) changes so stale caches
// degrade to misses instead of mis-deserializing.
const recordFormat = 1

// Record is the serialized outcome of one successful job — everything a
// RunResult carries except the full event timeline (jobs run with
// KeepTrace bypass the store entirely; per-kind trace sums are
// persisted, so figure insets work from a warm store). The Bench /
// Cluster / ClassName / Ranks / ClockGHz fields duplicate Spec content in
// flat, grep-friendly form for store inspection tooling
// (scripts/cache_stats.sh).
type Record struct {
	Format    int     `json:"format"`
	Key       string  `json:"key"`
	Bench     string  `json:"bench"`
	Cluster   string  `json:"cluster"`
	ClassName string  `json:"class"`
	Ranks     int     `json:"ranks"`
	ClockGHz  float64 `json:"clock_ghz"`

	Spec      spec.RunSpec    `json:"spec"`
	Usage     machine.Usage   `json:"usage"`
	RawUsage  machine.Usage   `json:"raw_usage"`
	Report    bench.RunReport `json:"report"`
	TraceSums [][]float64     `json:"trace_sums"`
}

// NewRecord snapshots a successful result for persistence: the
// scheduler writes one through to its store per fresh simulation, and
// tests use it to seed a store without running a scheduler.
func NewRecord(key string, res spec.RunResult) Record {
	cluster := ""
	if res.Spec.Cluster != nil {
		cluster = res.Spec.Cluster.Name
	}
	return Record{
		Format:    recordFormat,
		Key:       key,
		Bench:     res.Spec.Benchmark,
		Cluster:   cluster,
		ClassName: res.Spec.Class.String(),
		Ranks:     res.Spec.Ranks,
		ClockGHz:  res.Spec.ClockHz / 1e9,
		Spec:      res.Spec,
		Usage:     res.Usage,
		RawUsage:  res.RawUsage,
		Report:    res.Report,
		TraceSums: res.Trace.Sums(),
	}
}

// result reconstructs the RunResult a record was snapshotted from. It
// reports false for records of a different format generation or with a
// trace snapshot that does not cover the job's ranks (a truncated or
// hand-edited record must degrade to a re-simulated miss, not panic a
// renderer indexing per-rank sums).
func (r Record) result() (spec.RunResult, bool) {
	if r.Format != recordFormat || len(r.TraceSums) != r.Spec.Ranks {
		return spec.RunResult{}, false
	}
	return spec.RunResult{
		Spec:     r.Spec,
		Usage:    r.Usage,
		RawUsage: r.RawUsage,
		Report:   r.Report,
		Trace:    trace.FromSums(r.TraceSums),
	}, true
}

// Store is a persistent, content-addressed result cache keyed by the
// canonical job Key. Implementations must be safe for concurrent use and
// tolerate concurrent writers on shared storage (last write wins; records
// under one key are interchangeable by construction). A Get miss is
// (Record{}, false, nil); errors are reserved for faults (unreadable or
// corrupt entries), which the engine treats as misses and repairs by
// re-simulating and re-writing.
type Store interface {
	Get(key string) (Record, bool, error)
	Put(key string, rec Record) error
}

// DirStore is the on-disk Store: one JSON file per record under
// dir/<kk>/<key>.json, where <kk> is a two-character shard taken from the
// key hash (256 shards keep directory listings short for big campaigns).
// Writes go through a temp file plus atomic rename, so concurrent
// processes sharing a cache directory never observe torn records.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) a store rooted at dir.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening store: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

// shard returns the two-character shard directory of a key, derived from
// the leading hash characters after the version prefix.
func shard(key string) string {
	h := key
	if i := strings.IndexByte(h, '-'); i >= 0 {
		h = h[i+1:]
	}
	if len(h) < 2 {
		return "00"
	}
	return h[:2]
}

func (s *DirStore) path(key string) string {
	return filepath.Join(s.dir, shard(key), key+".json")
}

// Get loads the record persisted under key. Corrupt entries self-heal:
// a zero-length file (the classic artifact of a crash between create
// and flush on filesystems that do not order data before rename) is
// removed and reported as a clean miss, while a torn or mismatched
// record is removed and surfaced as an error so the engine counts the
// fault; either way the next Get is a plain miss and the re-simulated
// result overwrites the damage.
func (s *DirStore) Get(key string) (Record, bool, error) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("campaign: store read %s: %w", key, err)
	}
	if len(data) == 0 {
		os.Remove(path)
		return Record{}, false, nil
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		os.Remove(path)
		return Record{}, false, fmt.Errorf("campaign: store decode %s: %w", key, err)
	}
	if rec.Key != key {
		os.Remove(path)
		return Record{}, false, fmt.Errorf("campaign: store entry %s carries key %s", key, rec.Key)
	}
	return rec, true, nil
}

// Put persists a record under key, atomically replacing any existing
// entry. The temp file is fsynced before the rename: the rename alone
// is atomic with respect to concurrent readers but not with respect to
// a crash — without the flush, a power loss can leave the final name
// pointing at zero-length or partial content. The containing directory
// is then fsynced so the rename itself survives the crash.
func (s *DirStore) Put(key string, rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: store encode %s: %w", key, err)
	}
	dir := filepath.Join(s.dir, shard(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: store write %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(dir, "."+key+".tmp-")
	if err != nil {
		return fmt.Errorf("campaign: store write %s: %w", key, err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: store write %s: %v/%v/%v", key, werr, serr, cerr)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: store write %s: %w", key, err)
	}
	// Directory flush is best-effort: the record is already visible and
	// well-formed, so a filesystem that rejects fsync on directories only
	// re-widens the crash window — it must not fail a successful write.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ModelsDir returns the directory reserved for fitted surrogate models
// (see internal/surrogate). It lives inside the store root so one
// -cache-dir carries both tiers, but is excluded from record Usage and
// reported distinctly by scripts/cache_stats.sh — model files use an
// "m1-" prefix, never the record "v1-" prefix, so inspection and
// pruning tooling can tell the tiers apart.
func (s *DirStore) ModelsDir() string { return filepath.Join(s.dir, "models") }

// Walk invokes fn for every readable, well-formed record in the store,
// in unspecified order. Unreadable or corrupt entries are skipped (they
// degrade to misses at Get time anyway) and fn errors abort the walk.
// This is the surrogate fitter's bulk-load path — not a hot path.
func (s *DirStore) Walk(fn func(Record) error) error {
	return filepath.WalkDir(s.dir, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			if path == s.ModelsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".json") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil
		}
		if rec.Format != recordFormat {
			return nil
		}
		return fn(rec)
	})
}

// Len walks the store and returns the number of persisted records —
// inspection/testing helper, not on any hot path.
func (s *DirStore) Len() (int, error) {
	n, _, err := s.Usage()
	return n, err
}

// Usage walks the store and returns the persisted record count and
// their total size in bytes — the numbers behind the service /statsz
// endpoint and scripts/cache_stats.sh. Not on any hot path.
func (s *DirStore) Usage() (records int, bytes int64, err error) {
	err = filepath.WalkDir(s.dir, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			if path == s.ModelsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".json") {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		records++
		bytes += info.Size()
		return nil
	})
	return records, bytes, err
}
