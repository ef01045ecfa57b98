package readings

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"m2m/internal/graph"
)

// Trace replays a recorded matrix of station readings — one row per
// round, one column per node, the shape air-quality-style station dumps
// come in — cycling back to the first row when the recording runs out.
type Trace struct {
	n    int
	rows [][]float64
	next int
}

// NewTrace wraps a parsed reading matrix for an n-node network. Every row
// must carry exactly n finite readings: a NaN or infinite reading would
// poison every merge on its paths.
func NewTrace(n int, rows [][]float64) (*Trace, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("readings: empty trace")
	}
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("readings: trace row %d has %d readings, network has %d nodes", i, len(r), n)
		}
		for j, v := range r {
			if !finite(v) {
				return nil, fmt.Errorf("readings: trace row %d reading %d is %v; readings must be finite", i, j, v)
			}
		}
	}
	return &Trace{n: n, rows: rows}, nil
}

// Rounds returns the length of one replay cycle.
func (t *Trace) Rounds() int { return len(t.rows) }

// Next returns the next recorded round, cycling.
func (t *Trace) Next() map[graph.NodeID]float64 {
	row := t.rows[t.next%len(t.rows)]
	t.next++
	out := make(map[graph.NodeID]float64, t.n)
	for i, v := range row {
		out[graph.NodeID(i)] = v
	}
	return out
}

// ParseTrace reads a station-trace text file: one round per line, one
// reading per station separated by commas and/or whitespace. Blank lines
// and '#' comments are skipped, and a leading non-numeric line is treated
// as a column header. Row lengths must agree; NewTrace checks them
// against the network. A line of numbers holding NaN or an infinity,
// which strconv.ParseFloat accepts, is an error naming the line.
func ParseTrace(r io.Reader) ([][]float64, error) {
	sc := bufio.NewScanner(r)
	var rows [][]float64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.FieldsFunc(line, func(c rune) bool {
			return c == ',' || c == ' ' || c == '\t'
		})
		if len(fields) == 0 {
			continue // separators only — effectively blank
		}
		row := make([]float64, 0, len(fields))
		ok := true
		nonFinite := ""
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				ok = false
				break
			}
			if !finite(v) && nonFinite == "" {
				nonFinite = f
			}
			row = append(row, v)
		}
		if !ok {
			if len(rows) == 0 {
				continue // column header
			}
			return nil, fmt.Errorf("readings: trace line %d is not numeric", lineNo)
		}
		if nonFinite != "" {
			return nil, fmt.Errorf("readings: trace line %d holds non-finite reading %q", lineNo, nonFinite)
		}
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return nil, fmt.Errorf("readings: trace line %d has %d readings, earlier rows have %d", lineNo, len(row), len(rows[0]))
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("readings: trace holds no data rows")
	}
	return rows, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
