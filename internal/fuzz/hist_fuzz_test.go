package fuzz

// Differential fuzz target for stats.Hist's JSON decoder. Hist.UnmarshalJSON
// reads encoding/json's own layout directly and hands anything else to
// encoding/json; for any bytes it must accept exactly what encoding/json's
// reflective decode of the same four fields accepts, and give the same
// values. Journals, service responses and lease completions all decode
// histograms through it.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/stats"
)

// refHist has stats.Hist's fields and no methods, so encoding/json decodes
// it by reflection: the reference the fast path is held to.
type refHist struct {
	Buckets  []uint64
	Overflow uint64
	N        uint64
	Sum      float64
}

// TestRefHistMatchesHist keeps the reference in step with stats.Hist: a
// field added to Hist fails here until the reference (and the decoder's
// fast path) gains it too.
func TestRefHistMatchesHist(t *testing.T) {
	ht, rt := reflect.TypeOf(stats.Hist{}), reflect.TypeOf(refHist{})
	if ht.NumField() != rt.NumField() {
		t.Fatalf("stats.Hist has %d fields, refHist %d", ht.NumField(), rt.NumField())
	}
	for i := 0; i < ht.NumField(); i++ {
		hf, rf := ht.Field(i), rt.Field(i)
		if hf.Name != rf.Name || hf.Type != rf.Type || hf.Tag != rf.Tag {
			t.Errorf("field %d: stats.Hist has %s %v %q, refHist %s %v %q",
				i, hf.Name, hf.Type, hf.Tag, rf.Name, rf.Type, rf.Tag)
		}
	}
}

func FuzzHistJSON(f *testing.F) {
	// Both histograms of the committed golden journal line.
	golden, err := os.ReadFile(filepath.Join("..", "journal", "testdata", "record_v1.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	var l struct {
		Record struct {
			RegionSizes json.RawMessage `json:"region_sizes"`
			Arch        struct {
				StoresPerRegion json.RawMessage `json:"stores_per_region"`
			} `json:"arch"`
		} `json:"record"`
	}
	if err := json.Unmarshal(golden, &l); err != nil {
		f.Fatal(err)
	}
	if len(l.Record.RegionSizes) == 0 || len(l.Record.Arch.StoresPerRegion) == 0 {
		f.Fatal("golden line lost a histogram")
	}
	f.Add([]byte(l.Record.RegionSizes))
	f.Add([]byte(l.Record.Arch.StoresPerRegion))
	for _, s := range []string{
		`{"Buckets":null,"Overflow":0,"N":0,"Sum":0}`,
		`{"Buckets":[],"Overflow":0,"N":0,"Sum":0}`,
		`null`,
		`{"Buckets":[18446744073709551615],"Overflow":0,"N":1,"Sum":0}`,
		`{"Buckets":[18446744073709551616],"Overflow":0,"N":1,"Sum":0}`,
		`{"Buckets":[01],"Overflow":0,"N":1,"Sum":0}`,
		`{"Buckets":[-1],"Overflow":0,"N":1,"Sum":0}`,
		`{"Buckets":[1.0],"Overflow":0,"N":1,"Sum":0}`,
		`{"Buckets":[1,],"Overflow":0,"N":1,"Sum":0}`,
		`{ "Buckets" : [ 1, 2 ] , "Overflow" : 0 , "N" : 3 , "Sum" : 5 }`,
		`{"N":3,"Sum":5,"Buckets":[1,2],"Overflow":0}`,
		`{"Buckets":[1,2],"Overflow":0,"N":3,"Sum":5,"Extra":1}`,
		`{"Buckets":[1,2],"Overflow":0,"N":3,"Sum":5,"N":4}`,
		`{"Buckets":[1,2],"Buckets":null,"Overflow":0,"N":3,"Sum":5}`,
		`{"buckets":[1,2],"overflow":0,"n":3,"sum":5}`,
		`{"Buckets":[1],"Overflow":0,"N":1,"Sum":1e-7}`,
		`{"Buckets":[1],"Overflow":0,"N":1,"Sum":-0}`,
		`{"Buckets":[1],"Overflow":0,"N":1,"Sum":1e400}`,
		`{"Buckets":[1],"Overflow":0,"N":1,"Sum":"1"}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h stats.Hist
		var ref refHist
		herr := json.Unmarshal(data, &h)
		rerr := json.Unmarshal(data, &ref)
		if (herr == nil) != (rerr == nil) || fmt.Sprintf("%T", herr) != fmt.Sprintf("%T", rerr) {
			t.Fatalf("%q: stats.Hist err %v, reflection err %v", data, herr, rerr)
		}
		if herr != nil {
			return
		}
		if (h.Buckets == nil) != (ref.Buckets == nil) || !slices.Equal(h.Buckets, ref.Buckets) ||
			h.Overflow != ref.Overflow || h.N != ref.N || math.Float64bits(h.Sum) != math.Float64bits(ref.Sum) {
			t.Fatalf("%q: stats.Hist decoded %+v, reflection %+v", data, h, ref)
		}
	})
}
