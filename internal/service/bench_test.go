package service_test

// Where a served hit's time goes, layer by layer, over the committed
// golden record (sha on Sweep-EmptyBit under RF-Home: two dense
// histograms, 1.7 KB of JSON): the service's own work for a disk hit,
// the response encode sweepd's handler does, and the decode
// service.Client does. Run them with
//
//	go test -run '^$' -bench 'CellDiskHit|CellResponse' -benchmem ./internal/service/
//
// They are layer numbers for docs/PERFORMANCE.md, outside the engine
// gate (BENCH_engine.json).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

var benchResp *service.CellResponse

// goldenHit boots a service over a journal holding only the golden line,
// as a daemon restarted over its store would be, and returns it with the
// response to the golden cell's request, which must be a disk hit.
func goldenHit(b *testing.B) (*service.Service, *service.CellResponse) {
	b.Helper()
	golden, err := os.ReadFile(filepath.Join("..", "journal", "testdata", "record_v1.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "cells.jsonl")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		b.Fatal(err)
	}
	svc, err := service.New(service.Config{StorePath: path, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	resp, err := svc.Cell(context.Background(), testReq)
	if err != nil {
		b.Fatal(err)
	}
	if resp.Tier != "disk" {
		b.Fatalf("golden cell served from %q, want disk", resp.Tier)
	}
	return svc, resp
}

// BenchmarkCellDiskHit is Service.Cell for a record the journal loaded at
// Open: parse, key, lookup and response, with no HTTP.
func BenchmarkCellDiskHit(b *testing.B) {
	svc, _ := goldenHit(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Cell(ctx, testReq)
		if err != nil {
			b.Fatal(err)
		}
		benchResp = resp
	}
}

// BenchmarkCellResponseEncode is the handler's encode of one response.
func BenchmarkCellResponseEncode(b *testing.B) {
	_, resp := goldenHit(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkCellResponseDecode is the client's decode of one response body.
func BenchmarkCellResponseDecode(b *testing.B) {
	_, resp := goldenHit(b)
	body, err := json.Marshal(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r service.CellResponse
		if err := json.Unmarshal(body, &r); err != nil {
			b.Fatal(err)
		}
		benchResp = &r
	}
}
