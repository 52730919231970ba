package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// Kind is one user operation of a script.
type Kind uint8

const (
	// KindOpen replaces the workbook with the saved file (engine.Open).
	KindOpen Kind = iota
	// KindSetCell writes one plain value (engine.SetCell).
	KindSetCell
	// KindQuery types a query formula into the scratch cell
	// (engine.InsertFormula).
	KindQuery
	// KindFilter filters on one value and clears the filter again.
	KindFilter
	// KindPivot builds a pivot table into a new worksheet.
	KindPivot
	// KindCondFormat styles the cells of one column matching a value.
	KindCondFormat
)

var kindNames = [...]string{"open", "setcell", "query", "filter", "pivot", "condformat"}

func (k Kind) String() string { return kindNames[k] }

// Write reports whether the op changes data. Open and SetCell are writes;
// query formulas and view ops (filter, pivot, conditional format) are reads.
func (k Kind) Write() bool { return k == KindOpen || k == KindSetCell }

// Op is one step of a script. Fields unused by a kind stay zero.
type Op struct {
	Kind  Kind
	Sheet string     // target sheet; unused by Open
	At    cell.Addr  // SetCell target, or the query's scratch cell
	Value cell.Value // SetCell value, or the filter/condformat criterion
	Text  string     // query formula text
	Col   int        // filter/pivot dimension column, condformat column
	Col2  int        // pivot measure column
	Rows  int        // last data row (condformat range end)
}

func (op Op) String() string {
	switch op.Kind {
	case KindOpen:
		return "open"
	case KindSetCell:
		return fmt.Sprintf("setcell %s!%s %q", op.Sheet, op.At.A1(), op.Value.AsString())
	case KindQuery:
		return fmt.Sprintf("query %s!%s %s", op.Sheet, op.At.A1(), op.Text)
	default:
		return fmt.Sprintf("%s %s col %d %q", op.Kind, op.Sheet, op.Col, op.Value.AsString())
	}
}

// apply runs one op on the engine. For reads it returns the text of what
// the user sees (the query value, the filter's kept rows, the pivot table,
// the number of cells styled); writes return "".
func apply(e *engine.Engine, op Op, path string) (string, engine.Result, error) {
	if op.Kind == KindOpen {
		res, err := e.Open(path)
		return "", res, err
	}
	s := e.Workbook().Sheet(op.Sheet)
	if s == nil {
		return "", engine.Result{}, fmt.Errorf("no sheet %q", op.Sheet)
	}
	switch op.Kind {
	case KindSetCell:
		res, err := e.SetCell(s, op.At, op.Value)
		return "", res, err
	case KindQuery:
		v, res, err := e.InsertFormula(s, op.At, op.Text)
		return valueText(v), res, err
	case KindFilter:
		kept, res, err := e.Filter(s, op.Col, op.Value, 1)
		e.ClearFilter(s)
		return fmt.Sprint(kept), res, err
	case KindPivot:
		out, res, err := e.PivotTable(s, op.Col, op.Col2, 1)
		if err != nil {
			return "", res, err
		}
		return sheetText(out), res, nil
	case KindCondFormat:
		rng := cell.ColRange(op.Col, 1, op.Rows)
		n, res, err := e.ConditionalFormat(s, rng, op.Value, cell.Style{Bold: true})
		return fmt.Sprint(n), res, err
	}
	return "", engine.Result{}, fmt.Errorf("unknown op kind %d", op.Kind)
}

// valueText renders a value with its kind, so that 1 and "1" differ.
func valueText(v cell.Value) string { return fmt.Sprintf("%d:%g:%s", v.Kind, v.Num, v.Str) }

// sheetText renders every value of a sheet, row by row.
func sheetText(s *sheet.Sheet) string {
	var b strings.Builder
	for r := 0; r < s.Rows(); r++ {
		for c := 0; c < s.Cols(); c++ {
			b.WriteString(valueText(s.Value(cell.Addr{Row: r, Col: c})))
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Workload is one benchmark workload: a generated workbook and a seeded
// op script of fixed composition and order. The seed picks only the cells,
// values and keys of each op: which op follows which is the same for every
// seed, because some ops make the next one pay (a query formula typed into
// the scratch cell changes the formula set, and the next write re-infers
// the fill regions).
type Workload struct {
	Name string
	// Gen builds the workbook that set-up saves and opens.
	Gen func(workload.Spec) *sheet.Workbook
	// Rows is the number of data rows of the main sheet.
	Rows int
	// Round returns one round of the script; the script is a whole number
	// of rounds. i is the round's index.
	Round func(rng *rand.Rand, rows, i int) []Op
	// RoundsPerSecond sizes the script from --seconds at about the rate
	// the optimized engine sustains, so that the passes of a run take about
	// that long; a faster build runs the same script in less time.
	// MinRounds keeps every p90 of a pass on 100 or more samples.
	RoundsPerSecond, MinRounds int
}

// Rounds returns the number of rounds of a script whose passes together
// take about seconds.
func (w *Workload) Rounds(seconds int) int {
	return max(w.MinRounds, w.RoundsPerSecond*seconds/passes)
}

// Script returns the workload's op script: the same seed and length always
// give the same ops.
func (w *Workload) Script(seed uint64, seconds int) []Op {
	rng := rand.New(rand.NewPCG(seed, uint64(len(w.Name))<<32|0x5EED))
	var ops []Op
	for i := 0; i < w.Rounds(seconds); i++ {
		ops = append(ops, w.Round(rng, w.Rows, i)...)
	}
	return ops
}

// Spec returns the generator spec of the workload at a seed. Seed 0 would
// select the generator's default, so it is mapped to a fixed other value.
func (w *Workload) Spec(seed uint64) workload.Spec {
	if seed == 0 {
		seed = 0x5EED
	}
	return workload.Spec{Rows: w.Rows, Formulas: true, Seed: seed}
}

// workloads lists the benchmark's workloads by name.
var workloads = map[string]*Workload{
	"reopen": {
		Name: "reopen", Gen: workload.Weather, Rows: 500,
		Round: reopenRound, RoundsPerSecond: 22, MinRounds: 100,
	},
	"query": {
		Name: "query", Gen: workload.Weather, Rows: 2000,
		Round: queryRound, RoundsPerSecond: 13, MinRounds: 50,
	},
	"ledger-edit": {
		Name: "ledger-edit", Gen: workload.Ledger, Rows: 2000,
		Round: ledgerRound, RoundsPerSecond: 10, MinRounds: 34,
	},
}

// weatherScratch is the weather sheet's scratch query cell, R1: one column
// past the data, so no data cell is overwritten.
var weatherScratch = cell.Addr{Row: 0, Col: workload.NumCols}

// otherEvents are non-keyword event values written into event cells.
var otherEvents = []string{"CLEAR", "WIND", "CLOUDY"}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

// dataRow returns a random data row (1-based, below the header).
func dataRow(rng *rand.Rand, rows int) int { return 1 + rng.IntN(rows) }

func weatherQuery(text string) Op {
	return Op{Kind: KindQuery, Sheet: "weather", At: weatherScratch, Text: text}
}

func vlookupByID(rng *rand.Rand, rows int) Op {
	return weatherQuery(fmt.Sprintf("=VLOOKUP(%d,A2:B%d,2,FALSE)", dataRow(rng, rows), rows+1))
}

func countifByState(rng *rand.Rand, rows int) Op {
	return weatherQuery(fmt.Sprintf("=COUNTIF(B2:B%d,%q)", rows+1, pick(rng, workload.States)))
}

func sumifByState(rng *rand.Rand, rows int) Op {
	return weatherQuery(fmt.Sprintf("=SUMIF(B2:B%d,%q,J2:J%d)", rows+1, pick(rng, workload.States), rows+1))
}

// reopenRound is one Open followed by five reads of the new workbook: a
// VLOOKUP, a COUNTIF and a SUMIF that each build an index first, then a
// VLOOKUP and a COUNTIF served by those indexes. With five reads, the
// read median is the SUMIF, not the edge between two kinds of read.
func reopenRound(rng *rand.Rand, rows, _ int) []Op {
	return []Op{
		{Kind: KindOpen},
		vlookupByID(rng, rows),
		countifByState(rng, rows),
		sumifByState(rng, rows),
		vlookupByID(rng, rows),
		countifByState(rng, rows),
	}
}

// queryRound is seven reads and two single-cell writes on the weather
// sheet: three reads, a write to an event cell, four reads, a write to a
// state cell. With an odd number of reads of distinct costs per round, the
// read p50 and p90 fall inside one kind of op (the filter, the conditional
// format) instead of between two, where they would jump between runs.
func queryRound(rng *rand.Rand, rows, _ int) []Op {
	ev := rng.IntN(workload.NumEvents)
	text := workload.Keywords[ev]
	if rng.IntN(2) == 0 {
		text = pick(rng, otherEvents)
	}
	cf := rng.IntN(workload.NumEvents)
	return []Op{
		vlookupByID(rng, rows),
		countifByState(rng, rows),
		{Kind: KindFilter, Sheet: "weather", Col: workload.ColState, Value: cell.Str(pick(rng, workload.States))},
		{Kind: KindSetCell, Sheet: "weather", At: cell.Addr{Row: dataRow(rng, rows), Col: workload.ColEvent0 + ev},
			Value: cell.Str(text)},
		vlookupByID(rng, rows),
		sumifByState(rng, rows),
		{Kind: KindPivot, Sheet: "weather", Col: workload.ColState, Col2: workload.ColStorm},
		{Kind: KindCondFormat, Sheet: "weather", Col: workload.ColEvent0 + cf,
			Value: cell.Str(workload.Keywords[cf]), Rows: rows},
		{Kind: KindSetCell, Sheet: "weather", At: cell.Addr{Row: dataRow(rng, rows), Col: workload.ColState},
			Value: cell.Str(pick(rng, workload.States))},
	}
}

// ledgerScratch is the ledger sheet's scratch query cell, G1.
var ledgerScratch = cell.Addr{Row: 0, Col: workload.LedgerNumCols}

// ledgerRound is seven single-cell writes, five to amounts and two to
// accounts, and three summary reads on the ledger sheet, each read after
// two or three writes. An amount write costs about twice an account write
// (it also refreshes the summary's SUMIFs); five of seven puts the write
// median inside the amount writes instead of at their edge.
func ledgerRound(rng *rand.Rand, rows, _ int) []Op {
	last := rows + 1
	query := func(text string) Op {
		return Op{Kind: KindQuery, Sheet: "ledger", At: ledgerScratch, Text: text}
	}
	amount := func() Op {
		return Op{Kind: KindSetCell, Sheet: "ledger", At: cell.Addr{Row: dataRow(rng, rows), Col: workload.LedgerColAmount},
			Value: cell.Num(float64(1 + rng.IntN(500)))}
	}
	account := func() Op {
		return Op{Kind: KindSetCell, Sheet: "ledger", At: cell.Addr{Row: dataRow(rng, rows), Col: workload.LedgerColAccount},
			Value: cell.Str(pick(rng, workload.LedgerAccounts).Name)}
	}
	return []Op{
		amount(), account(),
		query(fmt.Sprintf("=SUMIF(C2:C%d,%q,D2:D%d)", last, pick(rng, workload.LedgerCategories), last)),
		amount(), amount(),
		query(fmt.Sprintf("=COUNTIF(C2:C%d,%q)", last, pick(rng, workload.LedgerCategories))),
		amount(), account(), amount(),
		query(fmt.Sprintf("=VLOOKUP(%d,A2:D%d,4,FALSE)", dataRow(rng, rows), last)),
	}
}
