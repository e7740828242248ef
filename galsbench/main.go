// Command galsbench is the repository's end-to-end and per-layer benchmark.
// It drives the simulator, the Figure-6 sweep pipeline and the serving
// stack through their public functions, checks every output, and prints
// one JSON result line. See README.md for the workloads, the metrics and
// how to read a traced run.
//
//	galsbench --workload sim_phase --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"
)

// env is what a workload run gets from the command line.
type env struct {
	// dir is a fresh scratch directory for caches and recordings, removed
	// when the run ends.
	dir    string
	seed   uint64
	budget time.Duration
	// tr is nil in untraced runs.
	tr *tracer
	// ref is the speed reference the workload ticks between ops.
	ref *speedRef
	// pert is the cost the sensitivity check adds to every op; nil in a
	// normal run.
	pert *perturb
}

// outcome is a workload run's measurements. layers is filled only in
// traced runs.
type outcome struct {
	stats  runStats
	layers map[string]metric
}

var workloads = map[string]func(env) (*outcome, error){
	"sim_phase":   simPhase,
	"suite_sweep": suiteSweep,
	"serve_mixed": serveMixed,
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: sim_phase, suite_sweep or serve_mixed")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 30, "length of the measured op phase")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build/work", "scratch directory for caches and recordings (tmpfs keeps fsync out of the numbers)")
		traceDir = flag.String("tracedir", ".bench_build/traces", "directory the traced run writes its span file to")
		goldens  = flag.String("write-goldens", "", "compute the output goldens at this commit, write them to this file and exit")
		spinFrac = flag.Float64("perturb-spin", 0, "sensitivity check: spin for this share of every op's duration inside the op")
		heapMB   = flag.Int("perturb-heap-mb", 0, "sensitivity check: allocate and write this many MiB inside every op, kept live until the next")
	)
	flag.Parse()
	if *goldens != "" {
		if err := writeGoldens(*goldens); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "galsbench: need --workload sim_phase|suite_sweep|serve_mixed, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	var fs syscall.Statfs_t
	if syscall.Statfs(dir, &fs) == nil && fs.Type != 0x01021994 { // TMPFS_MAGIC
		fmt.Fprintf(os.Stderr, "galsbench: note: %s is not on tmpfs; fsync cost will widen the serve_mixed spread\n", dir)
	}

	calN, calMed := calibrate(20, time.Millisecond)
	e := env{dir: dir, seed: *seed, budget: time.Duration(*seconds) * time.Second, ref: newSpeedRef()}
	if *trace == 1 {
		e.tr = newTracer()
	}
	if *spinFrac > 0 || *heapMB > 0 {
		e.pert = &perturb{spinFrac: *spinFrac, heapMB: *heapMB}
		fmt.Fprintf(os.Stderr, "galsbench: perturbed run: +%.2f spin, +%d MiB heap per op\n", *spinFrac, *heapMB)
	}
	host := startHostWatch()
	var rss runStats
	stopRSS := sampleRSS(&rss)
	out, err := run(e)
	stopRSS()
	steal, refNS := host.finish()
	diag := map[string]metric{
		"host.steal_frac":         {steal, "ratio"},
		"harness.ref_ns":          {refNS, "ns"},
		"harness.calibration_ops": {float64(calN), "count"},
		"harness.calibration_ms":  {float64(calMed) / float64(time.Millisecond), "ms"},
	}
	if err != nil {
		fmt.Printf("# diagnostics %s\n", mustJSON(diag))
		os.RemoveAll(dir)
		fatal(err)
	}
	out.stats.rssMB = rss.rssMB
	out.stats.refMS = e.ref.samples
	for _, f := range out.stats.failures {
		fmt.Fprintln(os.Stderr, "galsbench: failed op:", f)
	}

	res := result{
		Correct:   out.stats.failed == 0 && out.stats.attempted > 0,
		Attempted: out.stats.attempted,
		Failed:    out.stats.failed,
	}
	bounded, more := endToEnd(&out.stats)
	if e.tr == nil {
		res.Metrics = bounded
	} else {
		res.Metrics = out.layers
		res.Metrics["host.steal_frac"] = diag["host.steal_frac"]
		res.Metrics["harness.ref_ns"] = diag["harness.ref_ns"]
		self := selfTimes(e.tr.spans)
		for _, l := range tracedLayers {
			res.Metrics[l+".self_ms"] = metric{float64(self[l]) / 1e6, "ms"}
		}
		p, err := e.tr.write(*traceDir, *name, *seed)
		if err != nil {
			os.RemoveAll(dir)
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "galsbench: spans written to %s\n", p)
		for k, m := range bounded {
			more[k] = m
		}
	}
	for k, m := range more {
		diag[k] = m
	}
	fmt.Printf("# diagnostics %s\n", mustJSON(diag))
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON cannot carry the value; a metric with no samples is a
			// broken run, not a number.
			fmt.Fprintf(os.Stderr, "galsbench: metric %s is %v\n", k, m.Value)
			res.Metrics[k] = metric{-1, m.Unit}
			res.Correct = false
		}
	}
	fmt.Println(mustJSON(res))
}

// tracedLayers are the layers whose self time a traced run reports.
var tracedLayers = []string{
	"workload", "recstore", "core", "control", "clock", "cache", "bpred",
	"queue", "sweep", "resultcache", "service", "http",
}

// overhead returns the traced-run metrics comparing the traced ops with the
// untraced ops interleaved with them.
func overhead(ops []op) map[string]metric {
	var plain, withSpans []float64
	for _, o := range ops {
		ms := float64(o.dur) / float64(time.Millisecond)
		if o.traced {
			withSpans = append(withSpans, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	p, t := median(plain), median(withSpans)
	return map[string]metric{
		"trace.untraced_op_p50_ms": {p, "ms"},
		"trace.traced_op_p50_ms":   {t, "ms"},
		"trace.overhead_frac":      {(t - p) / p, "ratio"},
	}
}

// mustJSON encodes v, writing a NaN or infinite metric (a diagnostic with
// no samples) as null.
func mustJSON(v any) string {
	if m, ok := v.(map[string]metric); ok {
		clean := make(map[string]*metric, len(m))
		for k, x := range m {
			if !math.IsNaN(x.Value) && !math.IsInf(x.Value, 0) {
				clean[k] = &x
			} else {
				clean[k] = nil
			}
		}
		v = clean
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite numbers, strings and bools remain
	}
	return string(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "galsbench:", err)
	os.Exit(1)
}

// scratch returns a fresh subdirectory of the run's scratch directory.
func (e env) scratch(name string) (string, error) {
	return os.MkdirTemp(e.dir, name+"-")
}
