package main

import (
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: nerve/internal/codec
BenchmarkMotionSearch      	     100	   1234567 ns/op	    2048 B/op	      12 allocs/op
BenchmarkMotionSearch-4    	     400	    456789 ns/op	    2100 B/op	      14 allocs/op
PASS
ok  	nerve/internal/codec	1.234s
pkg: nerve/internal/sr
BenchmarkUpscale-4         	      50	  22334455 ns/op
some harness chatter that is not a bench line
ok  	nerve/internal/sr	2.345s
`

func TestParse(t *testing.T) {
	res, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if res.GoOS != "linux" || res.GoArch != "amd64" {
		t.Fatalf("goos/goarch = %q/%q", res.GoOS, res.GoArch)
	}
	if len(res.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(res.Benchmarks))
	}
	b := res.Benchmarks[0]
	if b.Name != "BenchmarkMotionSearch" || b.CPUs != 1 || b.Iterations != 100 ||
		b.NsPerOp != 1234567 || b.BytesPerOp != 2048 || b.AllocsPerOp != 12 ||
		b.Pkg != "nerve/internal/codec" {
		t.Fatalf("first bench parsed wrong: %+v", b)
	}
	if b := res.Benchmarks[1]; b.CPUs != 4 || b.Name != "BenchmarkMotionSearch" {
		t.Fatalf("-cpu suffix not split: %+v", b)
	}
	// No -benchmem on the sr run: alloc columns are marked absent, pkg
	// tracking follows the pkg: header.
	if b := res.Benchmarks[2]; b.BytesPerOp != -1 || b.AllocsPerOp != -1 ||
		b.Pkg != "nerve/internal/sr" || b.NsPerOp != 22334455 {
		t.Fatalf("sr bench parsed wrong: %+v", b)
	}
}

func bench(pkg, name string, cpus int, ns float64) Benchmark {
	return Benchmark{Pkg: pkg, Name: name, CPUs: cpus, Iterations: 100,
		NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
}

func TestCompareGate(t *testing.T) {
	base := &output{Benchmarks: []Benchmark{
		bench("p", "BenchmarkFDCT8", 1, 100),
		bench("p", "BenchmarkSADMB", 1, 1000),
		bench("p", "BenchmarkHelper", 1, 50), // not gated by the regexp
	}}
	gate := regexp.MustCompile(`Benchmark(FDCT8|SADMB)$`)

	// Within budget: 20% slower on one, faster on the other.
	cur := &output{Benchmarks: []Benchmark{
		bench("p", "BenchmarkFDCT8", 1, 120),
		bench("p", "BenchmarkSADMB", 1, 900),
	}}
	if n, rep := compare(base, cur, gate, 0.25); n != 0 {
		t.Fatalf("within-budget run failed gate (%d):\n%s", n, rep)
	}

	// Over budget on one benchmark.
	cur.Benchmarks[0] = bench("p", "BenchmarkFDCT8", 1, 130)
	n, rep := compare(base, cur, gate, 0.25)
	if n != 1 || !strings.Contains(rep, "REGRESSED") {
		t.Fatalf("30%% regression not caught (%d):\n%s", n, rep)
	}

	// A gated benchmark vanishing from the run is a failure too.
	cur.Benchmarks = cur.Benchmarks[1:]
	if n, rep := compare(base, cur, gate, 0.5); n != 1 || !strings.Contains(rep, "MISSING") {
		t.Fatalf("missing benchmark not caught (%d):\n%s", n, rep)
	}

	// Ungated helper may vanish or regress freely; nil regexp gates all.
	if n, _ := compare(base, cur, nil, 0.5); n != 2 {
		t.Fatalf("nil regexp should gate every baseline entry, got %d failures", n)
	}
}

func TestCompareKeysOnPkgAndCPUs(t *testing.T) {
	base := &output{Benchmarks: []Benchmark{
		bench("a", "BenchmarkX", 1, 100),
		bench("b", "BenchmarkX", 1, 100),
		bench("a", "BenchmarkX", 4, 100),
	}}
	// Same names, but pkg b's entry regressed and the -cpu 4 series is gone.
	cur := &output{Benchmarks: []Benchmark{
		bench("a", "BenchmarkX", 1, 100),
		bench("b", "BenchmarkX", 1, 300),
	}}
	if n, rep := compare(base, cur, nil, 0.25); n != 2 {
		t.Fatalf("want 2 failures (pkg-b regression + missing cpu-4 series), got %d:\n%s", n, rep)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX notanumber 5 ns/op",
		"BenchmarkX 10 nan-ish ns/op",
		"BenchmarkX 10 5 B/op", // no ns/op
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}
