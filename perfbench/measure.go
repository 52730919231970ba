package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/iolib"
)

// setup generates the workload's workbook, saves it to path and opens it
// on a fresh optimized engine.
func setup(w *Workload, seed uint64, path string) (*engine.Engine, error) {
	wb := w.Gen(w.Spec(seed))
	if err := iolib.SaveWorkbook(path, wb); err != nil {
		return nil, fmt.Errorf("save %s: %w", path, err)
	}
	return openEngine(engine.OptimizedProfile(), path)
}

// openEngine returns a fresh engine of the profile with the saved workbook
// open.
func openEngine(prof engine.Profile, path string) (*engine.Engine, error) {
	e := engine.New(prof)
	if _, err := e.Open(path); err != nil {
		return nil, fmt.Errorf("%s open %s: %w", prof.Name, path, err)
	}
	return e, nil
}

// session is the record of one script run: per-op times, results and what
// each read showed the user. An op's time is the CPU time of the thread
// that drives the engine (see README.md, "Clock"); its wall time is kept
// for comparison.
type session struct {
	cpu, wall []time.Duration
	res       []engine.Result
	outputs   []string
	errs      int
	elapsed   time.Duration // sum of the op times
	rt        runtimeSample // runtime counters over the timed phase
}

// runScript drives the engine through the script as one user: a closed
// loop with one client and no think time.
func runScript(e *engine.Engine, ops []Op, path string) *session {
	s := &session{
		cpu:     make([]time.Duration, len(ops)),
		wall:    make([]time.Duration, len(ops)),
		res:     make([]engine.Result, len(ops)),
		outputs: make([]string, len(ops)),
	}
	for i, op := range ops {
		start, cpu := time.Now(), threadCPU()
		out, res, err := apply(e, op, path)
		s.cpu[i], s.wall[i] = threadCPU()-cpu, time.Since(start)
		s.elapsed += s.cpu[i]
		s.res[i], s.outputs[i] = res, out
		if err != nil {
			s.errs++
			fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", i, op, err)
		}
	}
	return s
}

// percentiles are the ladder tailPercentile chooses from.
var percentiles = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten of n samples beyond it, or 0 when even the median has not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentiles {
		if n-rankIndex(p, n)-1 >= 10 {
			best = p
		}
	}
	return best
}

// rankIndex is the 0-based nearest-rank index of percentile p in n sorted
// samples. The epsilon keeps p·n/100 from rounding up past a whole rank
// (99.9 has no exact binary form).
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(p, len(sorted))]
}

// classLatencies splits op times in milliseconds into sorted reads and
// writes.
func classLatencies(ops []Op, times []time.Duration) (reads, writes []float64) {
	for i, op := range ops {
		ms := float64(times[i]) / float64(time.Millisecond)
		if op.Kind.Write() {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	return reads, writes
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passes is how many times a run sets up the workload and plays the
// script on the fresh engine. setup_s is the median set-up time; set-ups
// spread over the run meet more of the host's states than five in a row
// at its start. An op does the same work in every pass; its latency is
// the mean of its times over the passes without the fastest and the
// slowest (see README.md, "Clock"). heap_mb and alloc_kb_per_op are the
// median over the passes.
const passes = 5

// timed is the outcome of a run's timed phase.
type timed struct {
	metrics map[string]Metric
	// first is the first pass's session, checked against the reference.
	first *session
	// elapsed is the median pass's time spent in ops.
	elapsed time.Duration
	// final is the workbook after the first pass.
	final []sheetState
	// failed counts op errors of all passes and the later passes' reads
	// and final states that differ from the first pass's.
	failed int
}

// timedRun sets up the workload and plays the script passes times with
// tracing off.
func timedRun(w *Workload, seed uint64, path string, ops []Op) (*timed, error) {
	t := &timed{}
	var setupS, heapMB, allocKB []float64
	var elapsed []time.Duration
	times := make([][]time.Duration, len(ops)) // an op's time in each pass
	n := float64(len(ops))
	for p := 0; p < passes; p++ {
		runtime.GC() // so that each set-up starts from the same heap
		start := threadCPU()
		e, err := setup(w, seed, path)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (threadCPU() - start).Seconds())
		runtime.GC()
		before, rt := memStats(), readRuntime()
		s := runScript(e, ops, path)
		after := memStats()
		s.rt = readRuntime().sub(rt)
		runtime.GC()
		heap := memStats().HeapAlloc
		t.failed += s.errs
		final := snapshot(e)
		if p == 0 {
			t.first, t.final = s, final
		} else {
			t.failed += outputDiffs(ops, s, t.first)
			if d := stateDiff(final, t.final); d != "" {
				t.failed++
				fmt.Fprintf(os.Stderr, "perfbench: pass %d final state differs from pass 1: %s\n", p+1, d)
			}
		}
		for i, d := range s.cpu {
			times[i] = append(times[i], d)
		}

		reads, writes := classLatencies(ops, s.cpu)
		fmt.Printf("pass %d: reads n=%d p50=%.4f ms p90=%.4f ms; writes n=%d p50=%.4f ms p90=%.4f ms; %.2f ops/s\n", p+1,
			len(reads), percentile(reads, 50), percentile(reads, 90),
			len(writes), percentile(writes, 50), percentile(writes, 90), n/s.elapsed.Seconds())
		wr, ww := classLatencies(ops, s.wall)
		var wall time.Duration
		for _, d := range s.wall {
			wall += d
		}
		fmt.Printf("pass %d wall clock: reads p50=%.4f ms p90=%.4f ms; writes p50=%.4f ms p90=%.4f ms; %.2f ops/s\n", p+1,
			percentile(wr, 50), percentile(wr, 90), percentile(ww, 50), percentile(ww, 90), n/wall.Seconds())
		elapsed = append(elapsed, s.elapsed)
		heapMB = append(heapMB, float64(heap)/(1<<20))
		allocKB = append(allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	}

	lat := make([]time.Duration, len(ops))
	var sum time.Duration
	for i, ts := range times {
		lat[i] = trimmedMean(ts)
		sum += lat[i]
	}
	reads, writes := classLatencies(ops, lat)
	for _, c := range []struct {
		name string
		n    int
	}{{"read", len(reads)}, {"write", len(writes)}} {
		if tailPercentile(c.n) < 90 {
			return nil, fmt.Errorf("%d %s samples support no p90; need 100", c.n, c.name)
		}
	}
	fmt.Printf("trimmed mean of %d passes: reads n=%d p50=%.4f ms p90=%.4f ms; writes n=%d p50=%.4f ms p90=%.4f ms; %.2f ops/s\n", passes,
		len(reads), percentile(reads, 50), percentile(reads, 90),
		len(writes), percentile(writes, 50), percentile(writes, 90), n/sum.Seconds())
	t.metrics = map[string]Metric{
		"setup_s":         {median(setupS), "s"},
		"ops_per_s":       {n / sum.Seconds(), "1/s"},
		"read_ms_p50":     {percentile(reads, 50), "ms"},
		"read_ms_p90":     {percentile(reads, 90), "ms"},
		"write_ms_p50":    {percentile(writes, 50), "ms"},
		"write_ms_p90":    {percentile(writes, 90), "ms"},
		"heap_mb":         {median(heapMB), "MB"},
		"alloc_kb_per_op": {median(allocKB), "KB"},
	}
	sort.Slice(elapsed, func(i, j int) bool { return elapsed[i] < elapsed[j] })
	t.elapsed = elapsed[len(elapsed)/2]
	return t, nil
}

// trimmedMean returns the mean of ts without its smallest and largest
// element, sorting ts in place.
func trimmedMean(ts []time.Duration) time.Duration {
	slices.Sort(ts)
	var sum time.Duration
	for _, d := range ts[1 : len(ts)-1] {
		sum += d
	}
	return sum / time.Duration(len(ts)-2)
}

// median returns the median of xs, sorting it in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// outputDiffs counts the reads of got that differ from want's, printing
// the first few.
func outputDiffs(ops []Op, got, want *session) int {
	n := 0
	for i, op := range ops {
		if got.outputs[i] != want.outputs[i] {
			n++
			if n <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): read %q, reference %q\n", i, op, got.outputs[i], want.outputs[i])
			}
		}
	}
	return n
}

// buildDir returns the build output directory, $CARGO_TARGET_DIR or
// .bench_build, creating it when missing.
func buildDir() (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// workDir returns a fresh directory for the run's files inside the build
// directory.
func workDir() (string, error) {
	base, err := buildDir()
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "perfbench-")
}
