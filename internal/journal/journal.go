// Package journal makes experiment matrices crash-safe: every completed
// (workload, scheme, supply, params) cell is appended to a durable JSONL
// journal as soon as it finishes, and a restarted run consults the journal
// first and skips every already-proven cell. A process kill, OOM, panic or
// Ctrl-C therefore loses at most the cells that were in flight — resume is
// a plain re-run with the same journal path.
//
// Entries are keyed by a content hash of the full cell identity (workload,
// scale, scheme, trace profile, seed, a fingerprint of every simulation
// parameter, and the engine revision), so a journal can never serve a
// result produced under a different configuration or model version.
// A record is the sim.Result's own JSON encoding — its struct tags are the
// line format — with the final NVM image replaced by its hash, so a
// reloaded result's NVM is always nil. Records round-trip the result
// exactly — encoding/json renders float64 in shortest round-trip form, so
// a reloaded cell is bit-identical to the freshly simulated one; the
// resume tests in internal/exp prove the digests match across an
// interruption.
//
// The file format is deliberately forgiving: a line that fails to parse,
// fails its key check, or fails its digest check (a crash mid-append, a
// truncated disk, bit rot) is counted and skipped, and the cell simply
// re-runs. The journal never makes a run fail that would have succeeded
// without one.
//
// A Journal's in-memory index is also the only index of the result
// store (internal/store). A journal may have no file (New): its Appends
// only index, so a memory-only store and a durable one share one index
// implementation and differ only in whether a record outlives the
// process.
package journal

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// FormatVersion is the journal line format revision; lines with any other
// version are skipped (counted as corrupt) rather than misread.
const FormatVersion = 1

// Cell identifies one experiment-matrix cell completely: everything that
// can change the simulated result is part of the key.
type Cell struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	Scheme   string `json:"scheme"`
	// Profile is the trace profile name, or "outage-free" for an ideal
	// supply.
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	// ParamsFP is config.Params.Fingerprint() — a content hash over every
	// simulation parameter.
	ParamsFP string `json:"params_fp"`
	// Engine is sim.EngineVersion at record time; a model change
	// invalidates every prior entry.
	Engine string `json:"engine"`
}

// Key returns the cell's content-hash key.
func (c Cell) Key() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d\x00%s\x00%s\x00%d\x00%s\x00%s",
		c.Workload, c.Scale, c.Scheme, c.Profile, c.Seed, c.ParamsFP, c.Engine)))
	return hex.EncodeToString(h[:])
}

// Record is the durable form of a sim.Result: the result's own JSON
// encoding (its struct tags are the format) plus NVMHash, the content
// hash of the final NVM image. The image itself is never kept — a
// record's NVM is always nil — because the journal's index holds every
// record in memory, while the hash is what result digests and golden
// tests pin. A counter added to sim.Result or arch.Stats therefore
// reaches every journal, store and service response with no edit here.
//
// Records are immutable once built: readers copy the embedded Result
// and never write through a record. That is what lets a record compute
// its digest once, at its first Digest call, and keep it: Open and
// Append both call Digest, so every record a durable journal indexes
// carries its digest before it is first served. A Record must not be
// copied by value (it holds a sync.Once).
type Record struct {
	sim.Result
	// NVMHash is the hex SHA-256 of the final NVM image ("" when the
	// result carried no image).
	NVMHash string `json:"nvm_hash,omitempty"`

	// digestOnce guards digest, which the first Digest call fills.
	// Unexported fields are not encoded, so the format is unchanged.
	digestOnce sync.Once
	digest     string
}

// FromResult converts a simulation result into its durable record. The
// record shares r's histograms, so r must not be mutated afterwards.
func FromResult(r *sim.Result) *Record {
	rec := &Record{Result: *r}
	rec.NVM = nil
	if r.NVM != nil {
		h := r.NVM.ContentHash()
		rec.NVMHash = hex.EncodeToString(h[:])
	}
	return rec
}

// Digest returns the hex SHA-256 of the record's canonical JSON encoding.
// Because float64 JSON round-trips exactly, a record written, reloaded,
// and re-digested hashes identically — the property the kill/resume
// invariant tests pin.
//
// The digest is computed once per record, at the first call, and the
// stored value is returned after that; concurrent first calls are safe.
// A record decoded from JSON starts with none, so checking a received
// record against a claimed digest hashes what was received.
func (rec *Record) Digest() string {
	rec.digestOnce.Do(func() {
		raw, err := json.Marshal(rec)
		if err != nil {
			// Record holds only finite numbers and plain structs; Marshal
			// cannot fail on a value FromResult built.
			panic("journal: marshal record: " + err.Error())
		}
		h := sha256.Sum256(raw)
		rec.digest = hex.EncodeToString(h[:])
	})
	return rec.digest
}

// line is one journal line on disk.
type line struct {
	Format int     `json:"format"`
	Key    string  `json:"key"`
	Cell   Cell    `json:"cell"`
	Digest string  `json:"digest"`
	Record *Record `json:"record"`
}

// Stats counts what the journal's file has seen; a journal with no file
// counts nothing.
type Stats struct {
	Loaded  int // valid entries recovered at Open
	Corrupt int // lines skipped at Open (parse, key, or digest failure)
	Appends int // entries appended to the file since Open
	// TailError records a scanner failure during Open — e.g. a line beyond
	// the 64 MB buffer cap — that made the entire remaining tail of the
	// file unreadable. Unlike a Corrupt line (one bad entry), a tail error
	// means an unknown number of valid cells were dropped and will re-run;
	// it is surfaced distinctly so operators can see the difference.
	TailError string
}

// Metrics renders the load-time counts as journal_cells_loaded and
// journal_lines_corrupt: the one rendering every live /metrics endpoint
// over a journal uses.
func (st Stats) Metrics() *telemetry.Snapshot {
	s := telemetry.NewSnapshot()
	s.Counters["journal_cells_loaded"] = uint64(st.Loaded)
	s.Counters["journal_lines_corrupt"] = uint64(st.Corrupt)
	return s
}

// Journal is a cell index, optionally over an append-only file. Safe
// for concurrent use.
type Journal struct {
	// wmu serializes appends — the file write, its fsync, the index
	// insert — and Close. An append takes mu only for the insert, so an
	// fsync never stalls a Lookup.
	wmu sync.Mutex
	f   *os.File // nil: no file (New)

	// mu guards entries and stats. It is never held across I/O.
	mu      sync.Mutex
	entries map[string]entry
	stats   Stats
	// Fsync forces a Sync after every append (the default): an entry is
	// durable against power loss, not just process death, before the cell
	// is reported complete. Tests may disable it for speed.
	Fsync bool
}

// entry is one indexed record and its origin.
type entry struct {
	rec *Record
	// loaded: read from the file at Open, so proven before this process
	// started; false for a record appended since.
	loaded bool
}

// New returns a journal with no file: an index that Append fills
// without writing, so nothing outlives the process. Close does nothing.
func New() *Journal { return &Journal{entries: map[string]entry{}} }

// Open reads (or creates) the journal at path and indexes its valid
// entries. Corrupt or truncated lines — a crash mid-append leaves at most
// one — are skipped and counted, never fatal.
//
// The file is opened O_APPEND and every append holds an exclusive
// advisory flock, so multiple processes (service replicas, a resuming
// batch run beside a live server) can share one journal: appends land
// whole at the end of the file, never interleaved mid-line. The initial
// scan holds the shared lock, so it never reads through a half-written
// line from a concurrent appender.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j := &Journal{f: f, entries: map[string]entry{}, Fsync: true}

	if err := lockFile(f, false); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: lock %s: %w", path, err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil ||
			l.Format != FormatVersion || l.Record == nil {
			j.stats.Corrupt++
			continue
		}
		// Integrity: the key must re-derive from the cell, and the digest
		// from the record, or the line has been tampered with / bit-rotted.
		if l.Cell.Key() != l.Key || l.Record.Digest() != l.Digest {
			j.stats.Corrupt++
			continue
		}
		j.entries[l.Key] = entry{rec: l.Record, loaded: true}
		j.stats.Loaded++
	}
	if err := sc.Err(); err != nil {
		// An unreadable tail (e.g. a line beyond the buffer cap) degrades
		// to "those cells re-run" — but unlike a single corrupt line it
		// drops every entry after the failure point, so it is surfaced as
		// its own field and logged, not folded into the Corrupt count.
		j.stats.TailError = err.Error()
		slog.Warn("journal: unreadable tail — entries after the failure point are dropped and those cells will re-run",
			"path", path, "loaded", j.stats.Loaded, "err", err)
	}
	if err := unlockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: unlock %s: %w", path, err)
	}
	// No seek needed: O_APPEND routes every write to the end atomically,
	// which is what lets two processes share one journal file.
	return j, nil
}

// Lookup returns the journalled record for the cell, if one exists.
func (j *Journal) Lookup(c Cell) (*Record, bool) {
	rec, _, ok := j.Get(c.Key())
	return rec, ok
}

// Get returns the record indexed under a cell key, and whether it was
// loaded: read from the file at Open rather than appended since.
func (j *Journal) Get(key string) (rec *Record, loaded, ok bool) {
	j.mu.Lock()
	e, ok := j.entries[key]
	j.mu.Unlock()
	return e.rec, e.loaded, ok
}

// Append journals one completed cell: with a file, the line is written
// and (by default) fsynced before the record is indexed and Append
// returns, so a kill immediately after cannot lose it.
func (j *Journal) Append(c Cell, rec *Record) error {
	key := c.Key()
	var raw []byte
	if j.f != nil {
		l := line{Format: FormatVersion, Key: key, Cell: c, Digest: rec.Digest(), Record: rec}
		var err error
		if raw, err = json.Marshal(&l); err != nil {
			return fmt.Errorf("journal: marshal entry: %w", err)
		}
		raw = append(raw, '\n')
	}
	j.wmu.Lock()
	defer j.wmu.Unlock()
	if j.f != nil {
		if err := j.write(raw); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[key] = entry{rec: rec}
	if j.f != nil {
		j.stats.Appends++
	}
	return nil
}

// write appends one line to the file and, with Fsync, syncs it. Callers
// hold wmu.
func (j *Journal) write(raw []byte) error {
	// Exclusive advisory lock for the write+sync: O_APPEND already lands
	// the single write() whole at the end of the file, and the lock keeps
	// concurrent handles (other processes sharing this journal) from
	// racing a partial write or reordering against the fsync.
	if err := lockFile(j.f, true); err != nil {
		return fmt.Errorf("journal: lock for append: %w", err)
	}
	defer unlockFile(j.f)
	if _, err := j.f.Write(raw); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if j.Fsync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	return nil
}

// Len returns the number of distinct cells the index holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close releases the file. The index stays readable, but further
// Appends to a file-backed journal fail.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	j.wmu.Lock()
	defer j.wmu.Unlock()
	return j.f.Close()
}
