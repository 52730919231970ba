// Command perfbench is the repository's session benchmark. It drives the
// optimized engine as one user through a seeded op script of fixed
// composition, reports end-to-end latency (on the driving thread's CPU
// clock), throughput and memory (--trace 0) or per-layer figures from a
// separate traced run (--trace 1),
// and checks every read and the final workbook against an excel-profile
// replay of the same script. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// endToEndMetrics are the metrics of an untraced run (--trace 0), and
// layerMetrics those of a traced run (--trace 1); BENCHMARK.json declares
// the same names.
var (
	endToEndMetrics = []string{
		"setup_s", "ops_per_s", "read_ms_p50", "read_ms_p90",
		"write_ms_p50", "write_ms_p90", "heap_mb", "alloc_kb_per_op",
	}
	layerMetrics = []string{
		"iolib.load_ms",
		"formula.compile_ms", "formula.shape_reuse", "formula.evals_per_write", "formula.useful_eval_frac",
		"graph.build_ms", "graph.sequence_ms", "graph.dep_ops_per_write",
		"regions.infer_ms", "regions.reinfers_per_write",
		"typecheck.preflight_ms", "absint.infer_ms", "analyze.shared_ms", "plan.build_ms",
		"index.build_ms", "index.probes_per_read", "index.cold_read_frac",
		"sheet.cell_touch_per_op",
		"engine.refresh_externals_ms_per_write", "engine.op_self_frac",
		"runtime.gc_cpu_frac", "runtime.gc_cycles_per_op", "runtime.alloc_objects_per_op",
		"trace.overhead_frac",
	}
)

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "workload seed (held-out seed: 4242)")
	seconds := flag.Int("seconds", 20, "run length, which sizes the script at the workload's nominal rate")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The engine is single-threaded; two Ps leave the collector room
	// without letting it hide behind idle cores. The driving goroutine
	// keeps one OS thread, whose CPU clock times the ops.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	runtime.LockOSThread()

	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets up the workload, measures it and checks its outputs.
func run(w *Workload, seed uint64, seconds int, traced bool) (*Result, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, w.Name+".svf")
	ops := w.Script(seed, seconds)

	t, err := timedRun(w, seed, path, ops)
	if err != nil {
		return nil, err
	}
	metrics, failed, attempted := t.metrics, t.failed, passes*len(ops)
	if traced {
		var mismatches int
		if metrics, mismatches, err = layerRun(w, ops, path, t); err != nil {
			return nil, err
		}
		failed += mismatches
		attempted += len(ops)
	}
	want := endToEndMetrics
	if traced {
		want = layerMetrics
	}
	if len(metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, declared %d", len(metrics), len(want))
	}
	for _, name := range want {
		if _, ok := metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s not reported", name)
		}
	}
	refFailed, err := check(ops, path, t.first, t.final)
	if err != nil {
		return nil, err
	}
	failed += refFailed
	return &Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
