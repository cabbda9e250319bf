package protocol

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// TestBatchRoundTrip: AppendBatch → ReadResponseMeta → ParseBatch must reproduce
// the items, including flags, per-query errors, and keys needing quoting.
func TestBatchRoundTrip(t *testing.T) {
	items := []BatchItem{
		{Results: []Result{{Key: "a", Distance: 0.5}, {Key: "with space", Distance: 1.25}}},
		{Err: `no such key "x y"`},
		{Results: []Result{{Key: "q", Distance: 3}}, Meta: ResponseMeta{Degraded: true}},
		{}, // zero results is a valid group
		{Results: []Result{{Key: "t", Distance: 1}}, Meta: ResponseMeta{
			Degraded: true,
			TraceID:  "00000000deadbeef",
			Stages:   []StageTiming{{Name: "queue", Dur: 120000}, {Name: "scan", Dur: 910000}, {Name: "total", Dur: 1500000}},
		}},
	}
	var buf bytes.Buffer
	if _, err := buf.Write(AppendBatch(nil, items)); err != nil {
		t.Fatal(err)
	}
	lines, meta, err := ReadResponseMeta(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Degraded {
		t.Fatal("batch head line must not carry per-query flags")
	}
	got, err := ParseBatch(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("%d groups, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Err != items[i].Err || !reflect.DeepEqual(got[i].Meta, items[i].Meta) || len(got[i].Results) != len(items[i].Results) {
			t.Fatalf("group %d: %+v want %+v", i, got[i], items[i])
		}
		for r := range items[i].Results {
			if got[i].Results[r] != items[i].Results[r] {
				t.Fatalf("group %d rank %d: %+v want %+v", i, r, got[i].Results[r], items[i].Results[r])
			}
		}
	}
}

// TestParseBatchRejectsGarbage: malformed group structure must error, not
// panic or mis-assemble.
func TestParseBatchRejectsGarbage(t *testing.T) {
	for _, lines := range [][]string{
		{"not-a-header 0 1"},
		{"q 1 0"},                  // wrong slot
		{"q 0 5", "a 1"},           // truncated group
		{"q 0 x"},                  // bad count
		{"q 0 1", "one two three"}, // malformed result line
	} {
		if _, err := ParseBatch(lines); err == nil {
			t.Fatalf("lines %q parsed without error", lines)
		}
	}
}
