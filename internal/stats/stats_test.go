package stats

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	// Columns align: header and rows share the position of column 2.
	hdr := lines[1]
	row := lines[3]
	if strings.Index(hdr, "value") != strings.Index(row, "1") {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestAddRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if tb.Rows() != 1 {
		t.Fatal("row not added")
	}
	tb.AddRow("1", "2", "3", "4") // extra cell dropped
	if strings.Contains(tb.String(), "4") {
		t.Fatal("extra cell should be dropped")
	}
}

func TestMarshalJSON(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("1", "x,y") // comma must survive JSON
	raw, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "T" || len(got.Columns) != 2 || got.Rows[0][1] != "x,y" {
		t.Fatalf("round trip: %+v", got)
	}
	// Empty table encodes rows as [] not null.
	raw, _ = json.Marshal(NewTable("", "c"))
	if strings.Contains(string(raw), "null") {
		t.Fatalf("empty table encodes null: %s", raw)
	}
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("Title", "a", "b")
	tb.AddRow("1", "with,comma")
	tb.AddRow("2", `with"quote`)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# Title\n") {
		t.Fatalf("missing title comment:\n%s", out)
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Fatalf("comma not quoted:\n%s", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Fatalf("quote not escaped:\n%s", out)
	}
}

func TestDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{1500 * time.Nanosecond, "1.5µs"},
		{2500 * time.Microsecond, "2.50ms"},
		{1500 * time.Millisecond, "1.500s"},
	}
	for _, c := range cases {
		if got := Dur(c.d); got != c.want {
			t.Fatalf("Dur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10*time.Second, 2*time.Second); got != "5.0x" {
		t.Fatalf("Speedup = %q", got)
	}
	if got := Speedup(time.Second, 0); got != "-" {
		t.Fatalf("Speedup zero = %q", got)
	}
}

func TestBytes(t *testing.T) {
	if got := Bytes(512); got != "512B" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := Bytes(2048); got != "2.0KiB" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := Bytes(3 * 1024 * 1024); got != "3.0MiB" {
		t.Fatalf("Bytes = %q", got)
	}
}

func TestHeapDelta(t *testing.T) {
	var sink []byte
	d := HeapDelta(func() {
		sink = make([]byte, 8<<20)
		for i := range sink {
			sink[i] = byte(i)
		}
	})
	if d < 4<<20 {
		t.Fatalf("HeapDelta = %d, want ≥ 4MiB", d)
	}
	runtime.KeepAlive(sink)
}
