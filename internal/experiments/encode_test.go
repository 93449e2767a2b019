package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func demoTable() *Table {
	t := &Table{ID: "demo", Title: "demo table", Cols: []string{"a", "b"}}
	t.Add("row one", 1.5, 2)
	t.Add("row two", 1000, 0.25)
	t.Note("a note")
	return t
}

// TestJSONRoundTrip reads WriteJSON's output back in its serialized form.
func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := demoTable().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back jsonTable
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "demo" || back.Title != "demo table" || len(back.Rows) != 2 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	if back.Rows[1].Values[0] != 1000 || back.Rows[0].Values[1] != 2 {
		t.Fatalf("round trip lost values: %+v", back.Rows)
	}
	if len(back.Notes) != 1 || back.Notes[0] != "a note" {
		t.Fatalf("round trip lost notes: %v", back.Notes)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := demoTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "series,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "row one,1.5,2" {
		t.Fatalf("row = %q", lines[1])
	}
}
