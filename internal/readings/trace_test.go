package readings

import (
	"math"
	"strings"
	"testing"

	"m2m/internal/graph"
)

func TestTraceReplayCycles(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	tr, err := NewTrace(3, rows)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rounds() != 2 {
		t.Fatalf("Rounds() = %d, want 2", tr.Rounds())
	}
	for r := 0; r < 5; r++ {
		got := tr.Next()
		want := rows[r%2]
		if len(got) != 3 {
			t.Fatalf("round %d: %d readings, want 3", r, len(got))
		}
		for i, v := range want {
			if got[graph.NodeID(i)] != v {
				t.Fatalf("round %d node %d: got %v, want %v", r, i, got[graph.NodeID(i)], v)
			}
		}
	}
}

func TestTraceShapeValidation(t *testing.T) {
	if _, err := NewTrace(3, nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTrace(3, [][]float64{{1, 2}}); err == nil {
		t.Error("short row accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewTrace(2, [][]float64{{1, 2}, {v, 3}}); err == nil || !strings.Contains(err.Error(), "row 1 reading 0") {
			t.Errorf("reading %v: error %v, want one naming row 1 reading 0", v, err)
		}
	}
}

// TestParseTraceRejectsNonFinite pins that the parser refuses the NaN and
// infinity spellings strconv.ParseFloat accepts, naming the line, while a
// header line that merely contains such a word stays a header.
func TestParseTraceRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ name, src, line string }{
		{"nan", "1, 2\n3, nan\n", "line 2"},
		{"NaN first", "NaN 2\n", "line 1"},
		{"Inf", "# c\n1, 2\n\n3, Inf\n", "line 4"},
		{"+Inf", "1, +Inf\n", "line 1"},
		{"-Inf", "a, b\n1, 2\n-Inf, 4\n", "line 3"},
		{"-infinity", "1, 2\n3, 4\n5 -infinity\n", "line 3"},
	} {
		_, err := ParseTrace(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.line) || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: error %v, want a non-finite error naming %s", tc.name, err, tc.line)
		}
	}
	rows, err := ParseTrace(strings.NewReader("station, nan_count\n1, 2\n"))
	if err != nil || len(rows) != 1 {
		t.Errorf("header with a nan-like word: rows %v, err %v", rows, err)
	}
}

func TestParseTrace(t *testing.T) {
	src := `# three stations, air-quality style
station_a, station_b, station_c
17.2, 18.1, 16.9
17.4	18.0	17.1

17.9, 18.3, 17.0
`
	rows, err := ParseTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if rows[1][2] != 17.1 {
		t.Errorf("rows[1][2] = %v, want 17.1", rows[1][2])
	}
	if _, err := NewTrace(3, rows); err != nil {
		t.Errorf("parsed trace rejected: %v", err)
	}
}

// FuzzParseTrace hardens the trace parser against arbitrary text: it
// must either reject the input or return a non-empty rectangular matrix
// of finite readings that NewTrace accepts — never panic.
func FuzzParseTrace(f *testing.F) {
	f.Add("17.2, 18.1, 16.9\n17.4 18.0 17.1\n")
	f.Add("# comment\nheader_a, header_b\n1, 2\n")
	f.Add("1\n2\n3\n")
	f.Add("")
	f.Add("1, 2\n3, nan\n")
	f.Add("-Inf 1\n")
	f.Fuzz(func(t *testing.T, data string) {
		rows, err := ParseTrace(strings.NewReader(data))
		if err != nil {
			return
		}
		if len(rows) == 0 || len(rows[0]) == 0 {
			t.Fatal("accepted trace is empty")
		}
		for i, r := range rows {
			if len(r) != len(rows[0]) {
				t.Fatalf("accepted trace is ragged at row %d", i)
			}
			for _, v := range r {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted trace holds non-finite %v at row %d", v, i)
				}
			}
		}
		if _, err := NewTrace(len(rows[0]), rows); err != nil {
			t.Fatalf("accepted trace rejected by NewTrace: %v", err)
		}
	})
}

func TestParseTraceErrors(t *testing.T) {
	for name, src := range map[string]string{
		"empty":         "",
		"comments only": "# nothing\n",
		"ragged":        "1, 2, 3\n4, 5\n",
		"late header":   "1, 2\nnot, numbers\n",
		"non-numeric":   "1, 2\n3, x\n",
	} {
		if _, err := ParseTrace(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
