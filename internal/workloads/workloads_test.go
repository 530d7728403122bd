package workloads

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/ir"
	"repro/internal/isa"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 26 {
		t.Fatalf("%d workloads, want 26 (the paper's benchmark count)", len(all))
	}
	media, mi := 0, 0
	for _, w := range all {
		switch w.Suite {
		case "mediabench":
			media++
		case "mibench":
			mi++
		default:
			t.Errorf("%s: unknown suite %q", w.Name, w.Suite)
		}
	}
	if media != 16 || mi != 10 {
		t.Errorf("suites: %d media, %d mibench", media, mi)
	}
	// Paper order: adpcm first, rijndael last.
	if all[0].Name != "adpcmdec" || all[25].Name != "rijndaelenc" {
		t.Error("presentation order")
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("sha")
	if err != nil || w.Name != "sha" {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("missing error for unknown workload")
	}
	if len(Names()) != 26 {
		t.Error("Names length")
	}
}

// TestBuildersDeterministic: two builds of the same workload produce
// identical programs (linked code and data image).
func TestBuildersDeterministic(t *testing.T) {
	for _, w := range All() {
		a, err := ir.Link(w.Build(1))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := ir.Link(w.Build(1))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(a.Code) != len(b.Code) {
			t.Errorf("%s: code size differs", w.Name)
			continue
		}
		for i := range a.Code {
			if a.Code[i] != b.Code[i] {
				t.Errorf("%s: instr %d differs", w.Name, i)
				break
			}
		}
		if !reflect.DeepEqual(a.Image, b.Image) {
			t.Errorf("%s: data image differs", w.Name)
		}
	}
}

// TestBuildersValidate: every built program passes IR validation and
// allocates the checksum word first.
func TestBuildersValidate(t *testing.T) {
	for _, w := range All() {
		p := w.Build(1)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if CheckAddr() != ir.DataBase {
		t.Error("checksum address convention")
	}
}

// TestScaleGrowsWork: scale 2 must produce more dynamic work than scale 1;
// verified statically through larger loop bounds reflected in data size or
// identical code with different immediates.
func TestScaleGrowsWork(t *testing.T) {
	for _, name := range []string{"sha", "dijkstra", "adpcmenc"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p1 := w.Build(1)
		p2 := w.Build(2)
		if p2.DataSize < p1.DataSize {
			t.Errorf("%s: scale shrank the data segment", name)
		}
		grew := p2.DataSize > p1.DataSize
		if !grew {
			// Loop bound immediates must grow instead.
			grew = sumImm(p2) > sumImm(p1)
		}
		if !grew {
			t.Errorf("%s: scale had no effect", name)
		}
	}
}

func sumImm(p *ir.Program) int64 {
	var m int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == isa.OpMovI && in.Imm > 0 {
					m += in.Imm
				}
			}
		}
	}
	return m
}

// TestOpMixReasonable: every kernel must contain loads, stores and
// branches — the ingredients the memory-hierarchy experiments depend on.
func TestOpMixReasonable(t *testing.T) {
	for _, w := range All() {
		l, err := ir.Link(w.Build(1))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var loads, stores, branches int
		for _, in := range l.Code {
			switch {
			case in.Op.IsLoad():
				loads++
			case in.Op == isa.OpSt || in.Op == isa.OpStB:
				stores++
			case in.Op.IsBranch():
				branches++
			}
		}
		if loads == 0 || stores == 0 || branches == 0 {
			t.Errorf("%s: degenerate op mix (ld=%d st=%d br=%d)", w.Name, loads, stores, branches)
		}
	}
}

// TestMaxScaleFits: every workload built at MaxScale fits Table 1's NVM,
// so a kernel that grows its data cannot leave the bound stale.
func TestMaxScaleFits(t *testing.T) {
	nvm := config.Default().NVMSize
	for _, w := range All() {
		if end := ir.DataBase + w.Build(MaxScale).DataSize; end > nvm {
			t.Errorf("%s at scale %d: data ends at byte %d, past the %d B NVM", w.Name, MaxScale, end, nvm)
		}
	}
}
