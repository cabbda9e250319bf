package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationSketchK(t *testing.T) {
	rows, err := AblationSketchK(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvgPrecision <= 0 || r.AvgPrecision > 1 {
			t.Errorf("%s: precision %g", r.Config, r.AvgPrecision)
		}
	}
}

func TestAblationEMD(t *testing.T) {
	rows, err := AblationEMD(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvgPrecision <= 0 {
			t.Errorf("%s: precision %g", r.Config, r.AvgPrecision)
		}
	}
}

func TestAblationFilterParams(t *testing.T) {
	rows, err := AblationFilterParams(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	// More candidates never hurts quality within one r (up to noise); check
	// the r=4 row family is monotone-ish.
	var r4 []AblationRow
	for _, r := range rows {
		if strings.HasPrefix(r.Config, "r=4 ") {
			r4 = append(r4, r)
		}
	}
	if len(r4) != 3 {
		t.Fatalf("r=4 family: %d", len(r4))
	}
	if r4[2].AvgPrecision < r4[0].AvgPrecision-0.1 {
		t.Errorf("quality fell sharply with more candidates: %+v", r4)
	}
}

func TestAblationFilterPath(t *testing.T) {
	rows, err := AblationFilterPath(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvgPrecision <= 0 || r.Seconds <= 0 {
			t.Errorf("%s: %+v", r.Config, r)
		}
	}
	// Exact filtering cannot be worse in quality than the sketch path
	// (up to ranking ties).
	if rows[1].AvgPrecision < rows[0].AvgPrecision-0.05 {
		t.Errorf("exact path quality %g below sketch path %g", rows[1].AvgPrecision, rows[0].AvgPrecision)
	}
}

func TestAblationDurability(t *testing.T) {
	rows, err := AblationDurability(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// The mechanism, not the wall clock (which a loaded machine can
	// invert): per-commit durability fsyncs the WAL at least once per
	// ingested object, periodic sync a small fraction of that.
	n := min(tiny().MixedImageN, 2000)
	if rows[0].Fsyncs < n {
		t.Errorf("fsync every commit: %d WAL fsyncs for %d objects, want ≥ 1 per object", rows[0].Fsyncs, n)
	}
	if rows[1].Fsyncs*10 >= rows[0].Fsyncs {
		t.Errorf("periodic sync: %d WAL fsyncs, want < 1/10 of fsync-every-commit's %d", rows[1].Fsyncs, rows[0].Fsyncs)
	}
}

func TestAblationIndex(t *testing.T) {
	rows, err := AblationIndex(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Indexed filtering must retain most of the full scan's quality.
	if full, indexed := rows[0].AvgPrecision, rows[1].AvgPrecision; indexed < 0.7*full {
		t.Errorf("indexed quality %g vs full %g", indexed, full)
	}
}

func TestFprintAblations(t *testing.T) {
	var buf bytes.Buffer
	FprintAblations(&buf, []AblationRow{
		{Group: "g", Config: "a", AvgPrecision: 0.5, Seconds: -1},
		{Group: "g", Config: "b", AvgPrecision: -1, Seconds: 0.25},
	})
	out := buf.String()
	if !strings.Contains(out, "# g") || !strings.Contains(out, "avg_prec=0.500") ||
		!strings.Contains(out, "time=0.25000s") || strings.Contains(out, "avg_prec=-") {
		t.Fatalf("output:\n%s", out)
	}
}
