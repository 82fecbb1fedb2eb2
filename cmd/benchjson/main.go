// Command benchjson converts `go test -bench -benchmem` text output into a
// stable JSON artifact, so CI can record the perf trajectory — ns/op,
// B/op and allocs/op per benchmark — machine-readably next to the raw
// bench.txt (see the bench-smoke job in .github/workflows/ci.yml).
//
// With -baseline it additionally acts as the regression gate: the parsed
// run is diffed against a committed BENCH_*.json baseline and the process
// exits 1 when any gated benchmark's ns/op regressed by more than
// -max-regress (or disappeared from the run), so the codec-core speedups
// cannot silently erode.
//
// With -ceiling-ms / -ceiling-match it enforces an absolute per-op budget
// instead of a relative one — the real-time gate: the 1080p pipelined
// frame benchmark must stay under the 33 ms frame deadline no matter what
// the baseline says.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson -out BENCH_bench.json
//	go run ./cmd/benchjson -in bench_codec.txt -baseline BENCH_codec.json \
//	    -max-regress 0.25 -match 'Benchmark(FDCT8|SADMB|MotionSearchPredictive|EncodeFrame)$'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line. CPUs is the -cpu value encoded in
// the name suffix (GOMAXPROCS), 1 when the name carries no suffix.
// BytesPerOp/AllocsPerOp are -1 when the run lacked -benchmem.
type Benchmark struct {
	Pkg         string  `json:"pkg,omitempty"`
	Name        string  `json:"name"`
	CPUs        int     `json:"cpus"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type output struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "-", "bench output to read (- for stdin)")
	out := flag.String("out", "", "JSON file to write (- for stdout; default stdout unless -baseline is set)")
	baseline := flag.String("baseline", "", "committed BENCH_*.json to gate the run against")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs the baseline (with -baseline)")
	match := flag.String("match", "", "regexp over benchmark names selecting which baseline entries are gated (with -baseline; empty = all)")
	ceilingMs := flag.Float64("ceiling-ms", 0, "absolute ns/op ceiling in milliseconds for benchmarks matching -ceiling-match (0 = off)")
	ceilingMatch := flag.String("ceiling-match", "", "regexp over benchmark names the -ceiling-ms gate applies to")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	res, err := parse(r)
	if err != nil {
		fatal(err)
	}

	if *out != "" || (*baseline == "" && *ceilingMs == 0) {
		dst := *out
		if dst == "" {
			dst = "-"
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if dst == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(dst, data, 0o644); err != nil {
			fatal(err)
		}
	}

	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		var re *regexp.Regexp
		if *match != "" {
			if re, err = regexp.Compile(*match); err != nil {
				fatal(err)
			}
		}
		failures, report := compare(base, res, re, *maxRegress)
		fmt.Fprint(os.Stderr, report)
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%% of %s\n",
				failures, *maxRegress*100, *baseline)
			os.Exit(1)
		}
	}

	if *ceilingMs > 0 {
		if *ceilingMatch == "" {
			fatal(fmt.Errorf("-ceiling-ms requires -ceiling-match"))
		}
		re, err := regexp.Compile(*ceilingMatch)
		if err != nil {
			fatal(err)
		}
		failures, report := ceiling(res, re, *ceilingMs)
		fmt.Fprint(os.Stderr, report)
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) over the %.1f ms ceiling\n", failures, *ceilingMs)
			os.Exit(1)
		}
	}

}

// ceiling enforces an absolute budget: every benchmark in the run matching
// re must average under ceilMs milliseconds per op, and at least one
// benchmark must match — a deadline gate whose benchmark silently vanished
// is not a gate.
func ceiling(cur *output, re *regexp.Regexp, ceilMs float64) (failures int, report string) {
	var sb strings.Builder
	matched := 0
	for _, b := range cur.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		matched++
		gotMs := b.NsPerOp / 1e6
		verdict := "ok"
		if gotMs > ceilMs {
			failures++
			verdict = "OVER"
		}
		fmt.Fprintf(&sb, "%-9s %s (cpus=%d): %.2f ms/op vs %.1f ms ceiling\n",
			verdict, b.Name, b.CPUs, gotMs, ceilMs)
	}
	if matched == 0 {
		failures++
		fmt.Fprintf(&sb, "MISSING no benchmark in the run matches the ceiling gate %q\n", re)
	}
	return failures, sb.String()
}

// loadBaseline reads a committed BENCH_*.json artifact.
func loadBaseline(path string) (*output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base output
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &base, nil
}

// benchKey identifies a benchmark across runs: packages can share
// benchmark names, and -cpu variants are distinct series.
type benchKey struct {
	pkg  string
	name string
	cpus int
}

// compare gates the current run against the baseline: every baseline
// benchmark selected by re must be present and within (1+maxRegress)× of
// its baseline ns/op. A missing benchmark counts as a failure — a gate
// that silently stops measuring is not a gate. Returns the failure count
// and a human-readable table.
func compare(base, cur *output, re *regexp.Regexp, maxRegress float64) (failures int, report string) {
	current := make(map[benchKey]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		current[benchKey{b.Pkg, b.Name, b.CPUs}] = b
	}
	var sb strings.Builder
	for _, b := range base.Benchmarks {
		if re != nil && !re.MatchString(b.Name) {
			continue
		}
		key := benchKey{b.Pkg, b.Name, b.CPUs}
		got, ok := current[key]
		if !ok {
			failures++
			fmt.Fprintf(&sb, "MISSING %s %s (cpus=%d): in baseline, not in this run\n", b.Pkg, b.Name, b.CPUs)
			continue
		}
		if b.NsPerOp <= 0 {
			continue // degenerate baseline entry; nothing to gate on
		}
		ratio := got.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > 1+maxRegress {
			failures++
			verdict = "REGRESSED"
		}
		fmt.Fprintf(&sb, "%-9s %s (cpus=%d): %.1f ns/op vs baseline %.1f (%+.1f%%)\n",
			verdict, b.Name, b.CPUs, got.NsPerOp, b.NsPerOp, (ratio-1)*100)
	}
	return failures, sb.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse scans go-test bench output. Interesting lines:
//
//	goos: linux
//	goarch: amd64
//	pkg: nerve/internal/codec
//	BenchmarkEncode160x96-4   100  1234567 ns/op  2345 B/op  67 allocs/op
//
// Everything else (PASS, ok, harness prints) is skipped.
func parse(r io.Reader) (*output, error) {
	res := &output{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			res.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			res.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		b.Pkg = pkg
		res.Benchmarks = append(res.Benchmarks, b)
	}
	return res, sc.Err()
}

func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	// Minimum: name, iterations, value, "ns/op".
	if len(f) < 4 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], CPUs: 1, BytesPerOp: -1, AllocsPerOp: -1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if n, err := strconv.Atoi(b.Name[i+1:]); err == nil && n > 0 {
			b.Name, b.CPUs = b.Name[:i], n
		}
	}
	it, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = it
	// The rest are value/unit pairs.
	sawNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
			sawNs = true
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	return b, sawNs
}
