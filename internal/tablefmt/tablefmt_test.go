package tablefmt

import (
	"strings"
	"testing"
)

func TestAddRowPanicsOnMismatch(t *testing.T) {
	tbl := New("t", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("mismatched row accepted")
		}
	}()
	tbl.AddRow(1, 2)
}

func TestRowAndColumnAccess(t *testing.T) {
	tbl := New("t", "x", "a", "b")
	tbl.AddRow(1, 10, 20)
	tbl.AddRow(2, 30, 40)
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	col := tbl.Column("b")
	if len(col) != 2 || col[0] != 20 || col[1] != 40 {
		t.Errorf("Column(b) = %v", col)
	}
	if tbl.Column("missing") != nil {
		t.Error("missing column should be nil")
	}
	// Mutating the returned slice must not affect the table.
	col[0] = 999
	if tbl.Column("b")[0] != 20 {
		t.Error("Column leaks internal storage")
	}
}

func TestWriteText(t *testing.T) {
	tbl := New("Figure X", "n", "optimal", "multicast")
	tbl.AddRow(10, 1.5, 2)
	tbl.AddRow(100, 15.25, 20)
	var b strings.Builder
	if err := tbl.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure X", "optimal", "multicast", "15.250", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := New("", "x", "y")
	tbl.AddRow(1, 2.5)
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2.500\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}
