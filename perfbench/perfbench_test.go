package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestScriptDeterministic(t *testing.T) {
	for name, w := range workloads {
		a, b := w.Script(7, 10), w.Script(7, 10)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different scripts", name)
		}
		if reflect.DeepEqual(a, w.Script(8, 10)) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", name)
		}
		if got, want := len(a), w.Rounds(10)*len(w.Round(rand.New(rand.NewPCG(0, 0)), w.Rows, 0)); got != want {
			t.Errorf("%s: %d ops, want %d", name, got, want)
		}
	}
}

func TestScriptComposition(t *testing.T) {
	// Writes per round of each workload: one Open per reopen cycle, two
	// in nine query ops, seven in ten ledger-edit ops.
	want := map[string][2]int{"reopen": {1, 6}, "query": {2, 9}, "ledger-edit": {7, 10}}
	for name, w := range workloads {
		ops := w.Script(1, 10)
		writes := 0
		for _, op := range ops {
			if op.Kind.Write() {
				writes++
			}
		}
		wr := want[name]
		if writes*wr[1] != len(ops)*wr[0] {
			t.Errorf("%s: %d writes in %d ops, want %d in %d", name, writes, len(ops), wr[0], wr[1])
		}
		if reads := len(ops) - writes; reads < 100 || writes < 100 {
			t.Errorf("%s: %d reads and %d writes; each p90 needs 100", name, reads, writes)
		}
	}
}

func TestKindClass(t *testing.T) {
	writes := map[Kind]bool{KindOpen: true, KindSetCell: true}
	for k := KindOpen; k <= KindCondFormat; k++ {
		if k.Write() != writes[k] {
			t.Errorf("%s: Write() = %t", k, k.Write())
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	// One disturbed pass (40) and one lucky pass (1) do not move it.
	if got := trimmedMean([]time.Duration{40, 10, 1, 12, 14}); got != 12 {
		t.Errorf("trimmedMean = %d, want 12", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range append(append([]string{}, endToEndMetrics...), layerMetrics...) {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q", n)
		}
		if seen[n] {
			t.Errorf("metric %q declared twice", n)
		}
		seen[n] = true
	}
	bf := readBenchmarkFile(t)
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(bf.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", got, endToEndMetrics)
	}
	if got := names(bf.PerLayer); !reflect.DeepEqual(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", got, layerMetrics)
	}
	for _, wl := range bf.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown", wl.Name)
		}
	}
}

// TestSmallRuns runs every workload on a small workbook, untraced and
// traced: the output check must pass and the metrics and units must be the
// ones BENCHMARK.json declares.
func TestSmallRuns(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	units := map[string]string{}
	bf := readBenchmarkFile(t)
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for name, w := range workloads {
		small := *w
		small.Rows = 60
		for _, traced := range []bool{false, true} {
			res, err := run(&small, 3, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			played := passes
			if traced {
				played++
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != played*len(small.Script(3, 1)) {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				if units[k] != m.Unit {
					t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", name, k, m.Unit, units[k])
				}
			}
		}
	}
}
