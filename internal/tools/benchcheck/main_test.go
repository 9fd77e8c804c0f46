package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `
goos: linux
goarch: amd64
BenchmarkLoadLargeTrace/parallel-8        	       5	  12345678 ns/op	 512.34 MB/s	 1000 B/op	      25 allocs/op
BenchmarkLoadLargeTrace/serial-8          	       5	  23456789 ns/op
BenchmarkTADSummary/cold                  	      10	   9876543 ns/op	  2048 B/op	      12 allocs/op
benchmark output noise: 1234 ns/op should not match
PASS
ok  	github.com/celltrace/pdt	1.234s
`
	got := parseBench(out)
	want := map[string]metrics{
		"LoadLargeTrace/parallel": {NsOp: 12345678, BOp: 1000, AllocsOp: 25},
		"LoadLargeTrace/serial":   {NsOp: 23456789, BOp: -1, AllocsOp: -1},
		"TADSummary/cold":         {NsOp: 9876543, BOp: 2048, AllocsOp: 12},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench = %v, want %v", got, want)
	}
}

func TestParseBenchFractionalNsop(t *testing.T) {
	got := parseBench("BenchmarkX/fast-16   1000000   123.4 ns/op\n")
	if got["X/fast"].NsOp != 123.4 {
		t.Fatalf("parseBench fractional = %v", got)
	}
}

func TestCompare(t *testing.T) {
	base := map[string]metrics{
		"a": {NsOp: 1000, BOp: 100, AllocsOp: 10},
		"b": {NsOp: 1000, BOp: -1, AllocsOp: -1},
		"c": {NsOp: 1000, BOp: 100, AllocsOp: 10},
	}
	got := map[string]metrics{
		"a": {NsOp: 1200, BOp: 120, AllocsOp: 12}, // +20% on all: inside a 25% tolerance
		"b": {NsOp: 1300, BOp: 999, AllocsOp: 99}, // +30% time: regression; allocs unbaselined
		// c missing entirely
	}
	bad, _ := compare(base, got, 0.25, true)
	if len(bad) != 2 {
		t.Fatalf("compare flagged %d entries, want 2: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0], "b:") || !strings.Contains(bad[0], "+30.0%") {
		t.Errorf("regression line wrong: %q", bad[0])
	}
	if !strings.Contains(bad[1], "c:") || !strings.Contains(bad[1], "not measured") {
		t.Errorf("missing-benchmark line wrong: %q", bad[1])
	}
	clean := map[string]metrics{
		"a": {NsOp: 900, BOp: 100, AllocsOp: 10},
		"b": {NsOp: 1000, BOp: -1, AllocsOp: -1},
		"c": {NsOp: 1249, BOp: 124, AllocsOp: 12},
	}
	if bad, _ = compare(base, clean, 0.25, true); len(bad) != 0 {
		t.Fatalf("clean run flagged: %v", bad)
	}
	// Short sizes do not gate time: b's +30% becomes a note, the missing
	// benchmark still fails.
	bad, notes := compare(base, got, 0.25, false)
	if len(bad) != 1 || !strings.Contains(bad[0], "c:") {
		t.Fatalf("ungated time: flagged %v, want only the missing benchmark", bad)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "b:") || !strings.Contains(notes[0], "ns/op") {
		t.Fatalf("ungated time: notes %v, want b's ns/op", notes)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := map[string]metrics{"a": {NsOp: 1000, BOp: 100, AllocsOp: 10}}
	got := map[string]metrics{"a": {NsOp: 1000, BOp: 200, AllocsOp: 20}}
	bad, _ := compare(base, got, 0.25, false)
	if len(bad) != 2 {
		t.Fatalf("compare flagged %d entries, want B/op and allocs/op: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0], "B/op") || !strings.Contains(bad[1], "allocs/op") {
		t.Errorf("wrong metrics flagged: %v", bad)
	}
	// A benchmark that newly reports allocations against a baseline
	// without them (-1) must not be flagged on the alloc metrics.
	base = map[string]metrics{"a": {NsOp: 1000, BOp: -1, AllocsOp: -1}}
	if bad, _ = compare(base, got, 0.25, true); len(bad) != 0 {
		t.Fatalf("unbaselined alloc metrics flagged: %v", bad)
	}
}
