package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ferret/internal/core"
	"ferret/internal/evaltool"
)

// TestQualityPin pins every quality figure of Table1(tiny()) and
// Figure7(tiny()) exactly: average precision and first/second tier per
// Table 1 row, and per Figure 7 panel the original-vector precision and the
// precision at each sketch size. Timing is not part of these rows. A change
// that moves any answer on the labelled benchmarks moves one of these
// numbers; such a change must update the pin and say what moved and why.
//
// Most tiny-scale rows sit at AP 1, where a reorder of the answers cannot
// move the figure, so each row's engine is also pinned by a SHA-256 of every
// query's ranked result keys (rankedDigest): a change that reorders any
// answer moves that digest even where the precision stays.
func TestQualityPin(t *testing.T) {
	var ranked []string
	score := quality
	defer func() { quality = score }()
	quality = func(e *core.Engine, sets [][]string, mode core.Mode) (evaltool.Report, error) {
		rep, err := score(e, sets, mode)
		if err == nil {
			ranked = append(ranked, rankedDigest(t, e, sets, mode))
		}
		return rep, err
	}
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
	// One engine scored per row, in row order. Table 1's Ferret rows and
	// Figure 7's widest sketches are the same engines, so their digests
	// agree.
	wantRanked := []string{
		"bfb63da19be1871f719a727c0e6ffc715841be3f2a2e273c8c9ad2e5e7cbe62d",
		"0a8d6e8fc13b27ed19af3f46a8a869a346c55ef1cfefd5c43e7dab9269e6d171",
		"63cb75e6b5e0cd4bfe72aad3bcc12913358126815434c38ce7bcd9082385975b",
		"17408581af28cec1bfed9d8c9a20ae7e7bb9c3d73b353e35969a7263c17948fa",
		"48474fb0d9b98d3da80778b9b10119c03fbad767e8dadc52637d2190de4ccf58",
		"ef242d41912c38e28ae2267bf28e3318959395b7bf259abf180d32badaa22f90",
		"46dad5f4c31dc38a04da2df4e347d3b7713844152b8fded0ce886d613dcf8861",
		"bfb63da19be1871f719a727c0e6ffc715841be3f2a2e273c8c9ad2e5e7cbe62d",
		"c3bb041242fca4d735e35b60a3879cfeb82ea3510a4dae2c510be4aa8ad89a16",
		"8f7a9b244f382b212499575fe786aa87ad67663171a77025e4c2c02372dbee45",
		"63cb75e6b5e0cd4bfe72aad3bcc12913358126815434c38ce7bcd9082385975b",
		"57b47dd6aaa3c3b1c8fc45fce7f8d837b844508127277f5b86127004aa80749e",
		"d56d097196dc8e4745f549cd77eefaaba4b058d72df5635701957a0b311b3e72",
		"17408581af28cec1bfed9d8c9a20ae7e7bb9c3d73b353e35969a7263c17948fa",
	}
	if len(got) != len(want) || len(ranked) != len(wantRanked) {
		for _, g := range got {
			t.Logf("%q,", g)
		}
		for _, r := range ranked {
			t.Logf("%q,", r)
		}
		t.Fatalf("%d rows and %d ranked digests, want %d and %d", len(got), len(ranked), len(want), len(wantRanked))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
		if ranked[i] != wantRanked[i] {
			t.Errorf("row %d (%s): ranked keys digest %s, want %s", i, want[i], ranked[i], wantRanked[i])
		}
	}
}

// rankedDigest queries e as evaltool's loop does — each set's first key by
// ID, in mode, for 2·(|set|−1)+1 results — and returns a SHA-256 over every
// query key and its ranked result keys.
func rankedDigest(t *testing.T, e *core.Engine, sets [][]string, mode core.Mode) string {
	t.Helper()
	h := sha256.New()
	for _, set := range sets {
		if len(set) < 2 {
			continue
		}
		id, ok := e.Meta().LookupKey(set[0])
		if !ok {
			continue
		}
		ans, err := e.SearchByID(context.Background(), id, core.QueryOptions{Mode: mode, K: 2*(len(set)-1) + 1})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s:", set[0])
		for _, r := range ans.Results {
			fmt.Fprintf(h, " %s", r.Key)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
