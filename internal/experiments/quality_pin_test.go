package experiments

import (
	"fmt"
	"testing"
)

// TestQualityPin pins every quality figure of Table1(tiny()) and
// Figure7(tiny()) exactly: average precision and first/second tier per
// Table 1 row, and per Figure 7 panel the original-vector precision and the
// precision at each sketch size. Timing is not part of these rows. A change
// that moves any answer on the labelled benchmarks moves one of these
// numbers; such a change must update the pin and say what moved and why.
func TestQualityPin(t *testing.T) {
	rows, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprintf("table1 %s/%s ap=%v t1=%v t2=%v",
			r.Dataset, r.Method, r.AvgPrecision, r.FirstTier, r.SecondTier))
	}
	series, err := Figure7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		got = append(got, fmt.Sprintf("figure7 %s original ap=%v", s.Dataset, s.OriginalPrecision))
		for i, b := range s.Bits {
			got = append(got, fmt.Sprintf("figure7 %s %d bits ap=%v", s.Dataset, b, s.AvgPrecision[i]))
		}
	}
	want := []string{
		"table1 VARY Image/Ferret ap=0.9583333333333333 t1=0.875 t2=1",
		"table1 VARY Image/SIMPLIcity-like ap=0.9375 t1=0.875 t2=1",
		"table1 TIMIT Audio/Ferret ap=1 t1=1 t2=1",
		"table1 PSB 3D Shape/Ferret ap=1 t1=1 t2=1",
		"table1 PSB 3D Shape/SHD ap=1 t1=1 t2=1",
		"figure7 VARY Image original ap=1",
		"figure7 VARY Image 32 bits ap=0.8189102564102564",
		"figure7 VARY Image 96 bits ap=0.9583333333333333",
		"figure7 TIMIT Audio original ap=1",
		"figure7 TIMIT Audio 128 bits ap=0.8555555555555555",
		"figure7 TIMIT Audio 600 bits ap=1",
		"figure7 PSB 3D Shape original ap=1",
		"figure7 PSB 3D Shape 128 bits ap=0.7453703703703703",
		"figure7 PSB 3D Shape 800 bits ap=1",
	}
	if len(got) != len(want) {
		for _, g := range got {
			t.Logf("%q,", g)
		}
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
