package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/absint"
	"repro/internal/analyze"
	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/regions"
	"repro/internal/sheet"
	"repro/internal/typecheck"
)

// layerReps is how many times each standalone layer call is timed; the
// per-layer time is the median.
const layerReps = 3

// sharedAggMin is the optimized engine's threshold for building a shared
// aggregate column's index at load (engine.sharedAggMin).
const sharedAggMin = 2

// layerRun is the traced run. After the untraced timed phase (plain), it
// plays the script once more on a fresh engine with the engine's spans
// switched on, and times each layer's public entry points from outside on
// the workload's workbook. It returns the per-layer metrics and the number
// of traced ops that failed or differed from the untraced ones.
func layerRun(w *Workload, ops []Op, path string, plain *timed) (map[string]Metric, int, error) {
	runtime.GC()
	te, err := openEngine(engine.OptimizedProfile(), path)
	if err != nil {
		return nil, 0, err
	}
	obs.Reset()
	obs.SetEnabled(true)
	traced := runScript(te, ops, path)
	obs.SetEnabled(false)
	tr := obs.Take()
	if len(tr.Roots) != len(ops) {
		return nil, 0, fmt.Errorf("traced run: %d op root spans for %d ops", len(tr.Roots), len(ops))
	}
	if err := writeTrace(tr, w); err != nil {
		return nil, 0, err
	}
	mismatches := traced.errs + outputDiffs(ops, traced, plain.first)
	if d := stateDiff(snapshot(te), plain.final); d != "" {
		mismatches++
		fmt.Fprintf(os.Stderr, "perfbench: traced final state differs: %s\n", d)
	}

	m := map[string]Metric{}
	if err := layerTimes(ops, path, m); err != nil {
		return nil, 0, err
	}
	useful, err := usefulEvals(ops, path)
	if err != nil {
		return nil, 0, err
	}
	workMetrics(w, ops, traced, useful, m)
	spanMetrics(ops, tr, m)
	n, rt := float64(len(ops)), plain.first.rt
	m["runtime.gc_cpu_frac"] = Metric{rt.gcCPU / rt.totalCPU, "ratio"}
	m["runtime.gc_cycles_per_op"] = Metric{rt.gcCycles / n, "count"}
	m["runtime.alloc_objects_per_op"] = Metric{rt.allocObjects / n, "count"}
	m["trace.overhead_frac"] = Metric{traced.elapsed.Seconds()/plain.elapsed.Seconds() - 1, "ratio"}

	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, mismatches, nil
}

// runtimeSample holds the runtime/metrics counters a traced run reports.
type runtimeSample struct{ gcCPU, totalCPU, gcCycles, allocObjects float64 }

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return float64(s[i].Value.Uint64())
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.gcCycles - b.gcCycles, a.allocObjects - b.allocObjects}
}

// writeTrace writes the traced run's spans as a Chrome trace-event file
// next to the build outputs.
func writeTrace(tr *obs.Trace, w *Workload) error {
	dir, err := buildDir()
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "perfbench-"+w.Name+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// medianMS times f layerReps times on the thread clock and returns the
// median in milliseconds.
func medianMS(f func()) float64 {
	ms := make([]float64, layerReps)
	for i := range ms {
		start := threadCPU()
		f()
		ms[i] = float64(threadCPU()-start) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms[layerReps/2]
}

// formulaCell is one formula of a loaded workbook.
type formulaCell struct {
	s  *sheet.Sheet
	at cell.Addr
	fc sheet.Formula
}

func formulaCells(wb *sheet.Workbook) []formulaCell {
	var out []formulaCell
	for _, s := range wb.Sheets() {
		s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
			out = append(out, formulaCell{s, a, fc})
			return true
		})
	}
	return out
}

// layerTimes times each layer's public entry points on the workbook as an
// engine opens it.
func layerTimes(ops []Op, path string, m map[string]Metric) error {
	var loadErr error
	m["iolib.load_ms"] = Metric{medianMS(func() {
		_, loadErr = iolib.LoadWorkbook(path)
	}), "ms"}
	if loadErr != nil {
		return loadErr
	}
	e, err := openEngine(engine.OptimizedProfile(), path)
	if err != nil {
		return err
	}
	wb := e.Workbook()
	cells := formulaCells(wb)

	var compileErr error
	m["formula.compile_ms"] = Metric{medianMS(func() {
		for _, c := range cells {
			if _, err := formula.Compile(c.fc.Code.Text); err != nil {
				compileErr = err
			}
		}
	}), "ms"}
	if compileErr != nil {
		return compileErr
	}
	shapes := map[string]bool{}
	for _, c := range cells {
		dr, dc := c.fc.DeltaAt(c.at)
		shapes[c.s.Name+"!"+formula.R1C1Text(c.fc.Code.Root, dr, dc, c.at)] = true
	}
	m["formula.shape_reuse"] = Metric{float64(len(cells)) / float64(max(len(shapes), 1)), "ratio"}

	var graphs []*graph.Graph
	m["graph.build_ms"] = Metric{medianMS(func() { graphs = buildGraphs(wb) }), "ms"}
	m["graph.sequence_ms"] = Metric{medianMS(func() {
		for _, g := range graphs {
			g.AllFormulas()
		}
	}), "ms"}
	perSheet := func(f func(s *sheet.Sheet)) float64 {
		return medianMS(func() {
			for _, s := range wb.Sheets() {
				f(s)
			}
		})
	}
	m["regions.infer_ms"] = Metric{perSheet(func(s *sheet.Sheet) { regions.Infer(s) }), "ms"}
	m["typecheck.preflight_ms"] = Metric{perSheet(func(s *sheet.Sheet) { typecheck.NumericDataColumns(s) }), "ms"}
	m["absint.infer_ms"] = Metric{perSheet(func(s *sheet.Sheet) { absint.InferSheet(s).Certify() }), "ms"}
	m["analyze.shared_ms"] = Metric{perSheet(func(s *sheet.Sheet) { analyze.SharedColumnAggregates(s, sharedAggMin) }), "ms"}
	m["plan.build_ms"] = Metric{medianMS(func() { plan.Build(wb, plan.Options{}) }), "ms"}

	sheetName, cols := queriedColumns(ops)
	s := wb.Sheet(sheetName)
	if s == nil {
		return fmt.Errorf("no queried sheet %q", sheetName)
	}
	m["index.build_ms"] = Metric{medianMS(func() { buildIndexes(s, cols) }), "ms"}
	return nil
}

// buildGraphs registers every formula of the workbook in per-sheet
// dependency graphs, as the engine's load path does.
func buildGraphs(wb *sheet.Workbook) []*graph.Graph {
	var out []*graph.Graph
	for _, s := range wb.Sheets() {
		g := graph.New()
		s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
			dr, dc := fc.DeltaAt(a)
			g.SetFormula(a, fc.Code.PrecedentRanges(dr, dc))
			return true
		})
		out = append(out, g)
	}
	return out
}

// queriedColumns returns the sheet the script's query formulas are typed
// into and the columns they range over, ascending.
func queriedColumns(ops []Op) (string, []int) {
	sheetName := ""
	seen := map[int]bool{}
	for _, op := range ops {
		if op.Kind != KindQuery {
			continue
		}
		sheetName = op.Sheet
		c, err := formula.Compile(op.Text)
		if err != nil {
			continue
		}
		for _, r := range c.PrecedentRanges(0, 0) {
			seen[r.Start.Col] = true
		}
	}
	var cols []int
	for c := range seen {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return sheetName, cols
}

// buildIndexes builds the hash, ordered, prefix-sum and inverted indexes
// the optimized engine keeps for the given columns.
func buildIndexes(s *sheet.Sheet, cols []int) {
	rows := s.Rows()
	inv := index.NewInverted()
	for _, col := range cols {
		h, t := index.NewHash(), index.NewBTree(32)
		vals := make([]float64, rows)
		present := make([]bool, rows)
		errs := make([]bool, rows)
		for r := 0; r < rows; r++ {
			a := cell.Addr{Row: r, Col: col}
			v := s.Value(a)
			h.Add(r, v)
			t.Add(r, v)
			switch v.Kind {
			case cell.Number:
				vals[r], present[r] = v.Num, true
			case cell.Text:
				inv.Add(a, v.Str)
			}
			errs[r] = v.IsError()
		}
		index.NewPrefixSums(vals, present, errs)
	}
}

// usefulEvals returns, per write, how many formula evaluations it needed:
// for a SetCell the written cell's transitive dependents across sheets, for
// an Open every formula of the file. It follows the script's formula edits
// on dependency graphs of its own, so nothing here runs inside a measured
// op.
func usefulEvals(ops []Op, path string) ([]int, error) {
	res, err := iolib.LoadWorkbook(path)
	if err != nil {
		return nil, err
	}
	fileFormulas := int(res.Formulas)
	var deps *crossDeps
	out := make([]int, len(ops))
	for i, op := range ops {
		if deps == nil || op.Kind == KindOpen {
			deps = newCrossDeps(res.Workbook)
		}
		switch op.Kind {
		case KindOpen:
			out[i] = fileFormulas
		case KindSetCell:
			out[i] = deps.count(op.Sheet, op.At)
		case KindQuery:
			c, err := formula.Compile(op.Text)
			if err != nil {
				return nil, err
			}
			deps.graphs[op.Sheet].SetFormula(op.At, c.PrecedentRanges(0, 0))
		}
	}
	return out, nil
}

// extReader is a formula reading a range of another sheet.
type extReader struct {
	sheet string
	at    cell.Addr
	rng   cell.Range
}

// crossDeps finds transitive dependents across sheets: per-sheet graphs
// for local references plus the cross-sheet readers of each sheet.
type crossDeps struct {
	graphs  map[string]*graph.Graph
	readers map[string][]extReader // by the sheet read
}

func newCrossDeps(wb *sheet.Workbook) *crossDeps {
	d := &crossDeps{graphs: map[string]*graph.Graph{}, readers: map[string][]extReader{}}
	gs := buildGraphs(wb)
	for i, s := range wb.Sheets() {
		d.graphs[s.Name] = gs[i]
		s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
			if !fc.Code.External {
				return true
			}
			formula.Walk(fc.Code.Root, func(n formula.Node) {
				if x, ok := n.(formula.ExtRefNode); ok {
					d.readers[x.Sheet] = append(d.readers[x.Sheet], extReader{s.Name, a, x.Range()})
				}
			})
			return true
		})
	}
	return d
}

// count returns the number of formula cells, on any sheet, whose value
// can depend on the given cell.
func (d *crossDeps) count(sheetName string, at cell.Addr) int {
	type key struct {
		sheet string
		at    cell.Addr
	}
	seen := map[key]bool{}
	queue := []key{{sheetName, at}}
	for i := 0; i < len(queue); i++ {
		k := queue[i]
		var next []key
		if g := d.graphs[k.sheet]; g != nil {
			for _, a := range g.TransitiveDependents(k.at) {
				next = append(next, key{k.sheet, a})
			}
		}
		for _, r := range d.readers[k.sheet] {
			if r.rng.Contains(k.at) {
				next = append(next, key{r.sheet, r.at})
			}
		}
		for _, n := range next {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return len(seen)
}

// workMetrics derives the per-layer work counts from the traced session's
// per-op meters.
func workMetrics(w *Workload, ops []Op, s *session, useful []int, m map[string]Metric) {
	var reads, writes, evals, usefulN, depOps, probes, touches, cold float64
	for i, op := range ops {
		work := &s.res[i].Work
		touches += float64(work.Count(costmodel.CellTouch))
		if op.Kind.Write() {
			writes++
			evals += float64(work.Count(costmodel.FormulaEval))
			usefulN += float64(useful[i])
			depOps += float64(work.Count(costmodel.DepOp))
			continue
		}
		reads++
		probes += float64(work.Count(costmodel.IndexProbe))
		if work.Count(costmodel.CellTouch) >= int64(w.Rows) {
			cold++
		}
	}
	m["formula.evals_per_write"] = Metric{evals / writes, "count"}
	m["formula.useful_eval_frac"] = Metric{usefulN / max(evals, 1), "ratio"}
	m["graph.dep_ops_per_write"] = Metric{depOps / writes, "count"}
	m["index.probes_per_read"] = Metric{probes / reads, "count"}
	m["index.cold_read_frac"] = Metric{cold / reads, "ratio"}
	m["sheet.cell_touch_per_op"] = Metric{touches / float64(len(ops)), "count"}
}

// spanMetrics reads the engine's own spans under each op's root span.
func spanMetrics(ops []Op, tr *obs.Trace, m map[string]Metric) {
	var writes, reinfers float64
	var refresh, self, total time.Duration
	for i, root := range tr.Roots {
		child := time.Duration(0)
		for _, c := range root.Children {
			child += c.Dur
		}
		self += root.Dur - child
		total += root.Dur
		if !ops[i].Kind.Write() {
			continue
		}
		writes++
		walkSpans(root, func(sp *obs.TraceSpan) {
			switch sp.Name {
			case "regions.reinfer":
				reinfers++
			case "engine.refresh_externals":
				refresh += sp.Dur
			}
		})
	}
	m["regions.reinfers_per_write"] = Metric{reinfers / writes, "count"}
	m["engine.refresh_externals_ms_per_write"] = Metric{float64(refresh) / float64(time.Millisecond) / writes, "ms"}
	m["engine.op_self_frac"] = Metric{float64(self) / float64(total), "ratio"}
}

func walkSpans(sp *obs.TraceSpan, f func(*obs.TraceSpan)) {
	f(sp)
	for _, c := range sp.Children {
		walkSpans(c, f)
	}
}
