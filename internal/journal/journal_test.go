package journal_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// result runs one real quick simulation so the records under test carry
// genuine float ledgers and histograms, not synthetic round numbers.
func result(t *testing.T) *sim.Result {
	t.Helper()
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *ir.Program { return w.Build(1) }
	res, err := core.Run(build, arch.SweepEmptyBit, config.Default(), trace.New(trace.RFHome, 1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testCell(n string) journal.Cell {
	return journal.Cell{
		Workload: n, Scale: 1, Scheme: "sweep-eb", Profile: "RFHome",
		Seed: 1, ParamsFP: "deadbeefdeadbeefdeadbeefdeadbeef", Engine: sim.EngineVersion,
	}
}

// TestRecordRoundTripExact is the property the kill/resume invariant
// rests on: a record written to disk, reloaded, and re-digested hashes
// identically to the fresh one — encoding/json renders float64 in
// shortest round-trip form, so nothing drifts.
func TestRecordRoundTripExact(t *testing.T) {
	res := result(t)
	rec := journal.FromResult(res)
	want := rec.Digest()

	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Fsync = false
	if err := j.Append(testCell("sha"), rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Loaded != 1 || st.Corrupt != 0 {
		t.Fatalf("reload stats = %+v, want 1 loaded 0 corrupt", st)
	}
	got, ok := j2.Lookup(testCell("sha"))
	if !ok {
		t.Fatal("reloaded journal misses the cell")
	}
	if d := got.Digest(); d != want {
		t.Errorf("digest drift across write/reload:\n fresh    %s\n reloaded %s", want, d)
	}
	ra, _ := json.Marshal(rec)
	rb, _ := json.Marshal(got)
	if !bytes.Equal(ra, rb) {
		t.Error("reloaded record is not byte-identical to the fresh one")
	}

	// The reloaded result serves the figures: timing, energy, and every
	// counter must match (only the NVM image is hash-only).
	back := got.Result
	if back.TimeNs != res.TimeNs || back.Outages != res.Outages ||
		back.Counts != res.Counts || back.Ledger != res.Ledger {
		t.Error("reconstructed result diverges from the original")
	}
	if back.NVM != nil {
		t.Error("reloaded result must not claim an NVM image")
	}
	if rec.NVM != nil || res.NVM == nil || rec.NVMHash == "" {
		t.Error("FromResult must replace the NVM image with its hash and leave the result's image in place")
	}
}

// TestDigestComputedOnce pins the stored digest. Concurrent first calls
// all return the hash of the record's JSON, later calls return it without
// encoding again, and a record a reopened journal serves carries the
// digest its line claims.
func TestDigestComputedOnce(t *testing.T) {
	rec := journal.FromResult(result(t))
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	want := hex.EncodeToString(sum[:])

	got := make([]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = rec.Digest()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Errorf("goroutine %d: digest %s, want sha256 of the record's JSON %s", i, d, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { rec.Digest() }); allocs != 0 {
		t.Errorf("a repeated Digest allocates %.0f times: it is encoding the record again", allocs)
	}

	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Fsync = false
	if err := j.Append(testCell("sha"), rec); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var l struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatal(err)
	}
	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	served, ok := j2.Lookup(testCell("sha"))
	if !ok {
		t.Fatal("reopened journal misses the cell")
	}
	if d := served.Digest(); d != l.Digest || d != want {
		t.Errorf("reopened journal serves digest %s, its line claims %s, want %s", d, l.Digest, want)
	}
}

// TestRecordFormatGolden pins the durable format, which the struct tags
// on sim.Result and arch.Stats define. testdata/record_v1.jsonl is one
// journal line (sha on Sweep-EmptyBit under RF-Home: outages, region and
// stores-per-region histograms, an NVM hash) written before Record
// embedded sim.Result. Decoding and re-encoding it must give the same
// bytes and the same digest, so every journal on disk, record digest and
// lease response stays valid.
func TestRecordFormatGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "record_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var l struct {
		Cell   journal.Cell    `json:"cell"`
		Digest string          `json:"digest"`
		Record json.RawMessage `json:"record"`
	}
	if err := json.Unmarshal(golden, &l); err != nil {
		t.Fatal(err)
	}
	var rec journal.Record
	if err := json.Unmarshal(l.Record, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.RegionSizes == nil || rec.Arch.StoresPerRegion == nil || rec.NVMHash == "" || rec.Outages == 0 {
		t.Fatalf("golden record lost a field on decode: %+v", &rec)
	}
	raw, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, l.Record) {
		t.Fatalf("record re-encodes differently:\n golden %s\n now    %s", l.Record, raw)
	}
	if d := rec.Digest(); d != l.Digest {
		t.Fatalf("digest = %s, golden %s", d, l.Digest)
	}

	// The whole line, as Append writes it, is byte-identical too.
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Fsync = false
	if err := j.Append(l.Cell, &rec); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("journal line re-encodes differently:\n golden %s\n now    %s", golden, got)
	}
}

// TestLookupIsolation pins that a journal never serves a record across a
// configuration change: any identity field difference is a miss.
func TestLookupIsolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Fsync = false
	if err := j.Append(testCell("sha"), journal.FromResult(result(t))); err != nil {
		t.Fatal(err)
	}
	muts := map[string]func(*journal.Cell){
		"workload": func(c *journal.Cell) { c.Workload = "fft" },
		"scale":    func(c *journal.Cell) { c.Scale = 2 },
		"scheme":   func(c *journal.Cell) { c.Scheme = "nvp" },
		"profile":  func(c *journal.Cell) { c.Profile = "outage-free" },
		"seed":     func(c *journal.Cell) { c.Seed = 2 },
		"params":   func(c *journal.Cell) { c.ParamsFP = "0123456789abcdef0123456789abcdef" },
		"engine":   func(c *journal.Cell) { c.Engine = "engine-v0" },
	}
	for name, mut := range muts {
		c := testCell("sha")
		mut(&c)
		if _, ok := j.Lookup(c); ok {
			t.Errorf("journal served a record across a %s change", name)
		}
	}
}

// TestTwoHandleConcurrentAppend opens the same journal file through two
// independent handles — the same file-description layout two processes
// sharing one journal would have — and appends from both concurrently.
// O_APPEND plus the per-append flock must keep every line whole: a clean
// reopen recovers every entry with zero corruption. Before the fix
// (O_RDWR + manual seek-to-end, no lock) the two handles' cached offsets
// made appends overwrite and tear each other.
func TestTwoHandleConcurrentAppend(t *testing.T) {
	rec := journal.FromResult(result(t))
	path := filepath.Join(t.TempDir(), "shared.jsonl")

	ja, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ja.Fsync, jb.Fsync = false, false

	const perHandle = 50
	var wg sync.WaitGroup
	appendAll := func(j *journal.Journal, prefix string) {
		defer wg.Done()
		for i := 0; i < perHandle; i++ {
			if err := j.Append(testCell(fmt.Sprintf("%s%03d", prefix, i)), rec); err != nil {
				t.Errorf("append %s%d: %v", prefix, i, err)
				return
			}
		}
	}
	wg.Add(2)
	go appendAll(ja, "a")
	go appendAll(jb, "b")
	wg.Wait()
	ja.Close()
	jb.Close()

	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.Corrupt != 0 || st.TailError != "" {
		t.Errorf("concurrent two-handle appends corrupted the journal: %+v", st)
	}
	if st.Loaded != 2*perHandle {
		t.Errorf("loaded %d entries, want %d", st.Loaded, 2*perHandle)
	}
	// Every entry must be intact, not merely parseable: digests re-verify
	// at Open, so Loaded == total already proves it, but check a sample
	// lookup from each handle's range.
	for _, n := range []string{"a000", "a049", "b000", "b049"} {
		if _, ok := j2.Lookup(testCell(n)); !ok {
			t.Errorf("entry %s missing after concurrent appends", n)
		}
	}
}

// TestTailErrorSurfaced feeds Open a journal whose tail holds a line
// beyond the scanner's 64 MB buffer cap. Every entry before the bad line
// must load, and the scanner failure must surface as Stats.TailError —
// not be silently folded into the per-line Corrupt count.
func TestTailErrorSurfaced(t *testing.T) {
	rec := journal.FromResult(result(t))
	path := filepath.Join(t.TempDir(), "tail.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Fsync = false
	if err := j.Append(testCell("ok"), rec); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// One monster line: longer than the 64 MB scanner cap, no newline.
	chunk := bytes.Repeat([]byte{'x'}, 1<<20)
	for i := 0; i < 65; i++ {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.Loaded != 1 {
		t.Errorf("loaded %d entries, want the 1 before the oversized line", st.Loaded)
	}
	if st.TailError == "" {
		t.Error("scanner failure not surfaced in Stats.TailError")
	}
	if st.Corrupt != 0 {
		t.Errorf("tail error double-counted as %d corrupt lines", st.Corrupt)
	}
}

// TestOpenTolerance damages a journal the ways a crash does — a torn
// final line, a flipped byte, foreign garbage — and requires Open to
// recover every intact entry while counting the rest.
func TestOpenTolerance(t *testing.T) {
	rec := journal.FromResult(result(t))
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Fsync = false
	for _, n := range []string{"a", "b", "c"} {
		if err := j.Append(testCell(n), rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))

	t.Run("torn tail", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "j.jsonl")
		damaged := append(append([]byte{}, raw...), lines[0][:40]...) // mid-append crash
		os.WriteFile(p, damaged, 0o644)
		j, err := journal.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if st := j.Stats(); st.Loaded != 3 || st.Corrupt != 1 {
			t.Errorf("stats = %+v, want 3 loaded 1 corrupt", st)
		}
	})

	t.Run("flipped byte", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "j.jsonl")
		damaged := append([]byte{}, raw...)
		damaged[len(lines[0])+len(lines[1])/2] ^= 0x20 // inside line 2
		os.WriteFile(p, damaged, 0o644)
		j, err := journal.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		st := j.Stats()
		if st.Loaded+st.Corrupt != 3 || st.Loaded < 2 {
			t.Errorf("stats = %+v, want the 2 intact lines recovered", st)
		}
	})

	t.Run("foreign garbage then append", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "j.jsonl")
		os.WriteFile(p, append([]byte("not json at all\n{\"format\":99}\n"), lines[0]...), 0o644)
		j, err := journal.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		j.Fsync = false
		if st := j.Stats(); st.Loaded != 1 || st.Corrupt != 2 {
			t.Errorf("stats = %+v, want 1 loaded 2 corrupt", st)
		}
		// The journal stays appendable after a tolerant open, and a clean
		// reopen sees both the surviving and the new entry.
		if err := j.Append(testCell("d"), rec); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j2, err := journal.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if j2.Len() != 2 {
			t.Errorf("after damage + append: %d entries, want 2", j2.Len())
		}
	})
}
