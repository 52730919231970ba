package main

import (
	"fmt"
	"os"

	"repro/internal/cell"
	"repro/internal/engine"
)

// sheetState is what a user can see of one worksheet after a session.
type sheetState struct {
	name     string
	formulas int
	hidden   []bool
	values   [][]cell.Value
}

// snapshot copies the visible state of every worksheet, in tab order.
func snapshot(e *engine.Engine) []sheetState {
	var out []sheetState
	for _, s := range e.Workbook().Sheets() {
		st := sheetState{name: s.Name, formulas: s.FormulaCount()}
		for r := 0; r < s.Rows(); r++ {
			st.hidden = append(st.hidden, s.RowHidden(r))
			row := make([]cell.Value, s.Cols())
			for c := range row {
				row[c] = s.Value(cell.Addr{Row: r, Col: c})
			}
			st.values = append(st.values, row)
		}
		out = append(out, st)
	}
	return out
}

// stateDiff returns the first difference between two snapshots, or "".
// Values compare with exact struct equality: text case counts.
func stateDiff(got, want []sheetState) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d sheets, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.name != w.name:
			return fmt.Sprintf("sheet %d is %q, reference %q", i, g.name, w.name)
		case g.formulas != w.formulas:
			return fmt.Sprintf("%s: %d formulas, reference %d", g.name, g.formulas, w.formulas)
		case len(g.values) != len(w.values):
			return fmt.Sprintf("%s: %d rows, reference %d", g.name, len(g.values), len(w.values))
		}
		for r := range g.values {
			if g.hidden[r] != w.hidden[r] {
				return fmt.Sprintf("%s row %d: hidden=%t, reference %t", g.name, r+1, g.hidden[r], w.hidden[r])
			}
			if len(g.values[r]) != len(w.values[r]) {
				return fmt.Sprintf("%s row %d: %d columns, reference %d", g.name, r+1, len(g.values[r]), len(w.values[r]))
			}
			for c, v := range g.values[r] {
				if v != w.values[r][c] {
					a := cell.Addr{Row: r, Col: c}
					return fmt.Sprintf("%s!%s: %+v, reference %+v", g.name, a.A1(), v, w.values[r][c])
				}
			}
		}
	}
	return ""
}

// check replays the script untimed on an excel-profile engine opened from
// the same file and compares every read and the final state with the
// session's; optimized and excel share lookup semantics, so both must
// agree exactly. It returns the number of failed ops: op errors of the
// reference, reads that differ, and one more when the final states differ.
func check(ops []Op, path string, s *session, final []sheetState) (int, error) {
	ref, err := openEngine(engine.ExcelProfile(), path)
	if err != nil {
		return 0, err
	}
	want := runScript(ref, ops, path)
	failed := want.errs + outputDiffs(ops, s, want)
	if d := stateDiff(final, snapshot(ref)); d != "" {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: final state differs: %s\n", d)
	}
	return failed, nil
}
