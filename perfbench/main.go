// Command perfbench is the NERVE end-to-end benchmark. It drives one
// workload — play-clean, play-lossy or origin-live — through the public
// entry points of the system's packages, times every call from outside,
// checks the outputs, and prints one JSON result as its last line of
// standard output:
//
//	perfbench --workload play-clean --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run, and the spans
// are written to a JSON file beside the build. README.md in this directory
// explains each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// opts are the command-line settings a workload runs with.
type opts struct {
	seed    int64
	seconds int
	trace   bool
	// traceOut is the file a traced run writes its spans to.
	traceOut string
	// log receives the human-readable diagnostics printed before the
	// result line.
	log io.Writer
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(opts) (*result, error){
	"play-clean":  func(o opts) (*result, error) { return runPlay(o, false) },
	"play-lossy":  func(o opts) (*result, error) { return runPlay(o, true) },
	"origin-live": runOrigin,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: play-clean, play-lossy or origin-live")
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured session in seconds of video")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, log: os.Stdout}
	if o.trace {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		o.traceOut = filepath.Join(dir, fmt.Sprintf("perfbench-%s-%d.trace.json", *workload, *seed))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checks counts operations and failed correctness checks; a failed check
// counts as a failed operation.
type checks struct {
	attempted, failed int
	first             error
}

// op records one attempted operation and whether it failed.
func (c *checks) op(err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		if c.first == nil {
			c.first = err
		}
		return false
	}
	return true
}

// fail records a failed check, itself one operation.
func (c *checks) fail(err error) {
	c.attempted++
	c.failed++
	if c.first == nil {
		c.first = err
	}
}

// merge adds another counter's operations and failures.
func (c *checks) merge(o *checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.first == nil {
		c.first = o.first
	}
}

func (c *checks) result(m metrics) *result {
	if c.attempted == 0 {
		c.fail(fmt.Errorf("no operation attempted"))
	}
	if c.first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", c.failed, c.attempted, c.first)
	}
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}
