package server

import (
	"slices"
	"strings"
	"testing"

	"ferret/internal/protocol"
)

// TestBatchQuery: a BATCHQUERY answer must match the same keys queried one
// at a time, with per-key errors confined to their group.
func TestBatchQuery(t *testing.T) {
	client, _ := startServer(t, nil)
	keys := []string{"c0/m0", "c1/m2", "no-such-key", "c2/m1"}
	items, err := client.BatchQuery(keys, protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(keys) {
		t.Fatalf("%d groups for %d keys", len(items), len(keys))
	}
	for i, key := range keys {
		if key == "no-such-key" {
			if !strings.Contains(items[i].Err, "unknown object key") {
				t.Fatalf("group %d: err %q", i, items[i].Err)
			}
			continue
		}
		if items[i].Err != "" {
			t.Fatalf("group %d: unexpected error %q", i, items[i].Err)
		}
		want, err := client.Query(key, protocol.QueryParams{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(items[i].Results) != len(want) {
			t.Fatalf("group %d: %d vs %d results", i, len(items[i].Results), len(want))
		}
		for r := range want {
			if items[i].Results[r] != want[r] {
				t.Fatalf("group %d rank %d: batch %v serial %v", i, r, items[i].Results[r], want[r])
			}
		}
		if items[i].Results[0].Key != key {
			t.Fatalf("group %d: self %q not first (%+v)", i, key, items[i].Results[0])
		}
	}
}

// TestBatchQueryBadArgs: malformed batch requests fail the whole request.
func TestBatchQueryBadArgs(t *testing.T) {
	client, _ := startServer(t, nil)
	if _, err := client.BatchQuery(nil, protocol.QueryParams{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	// n out of range.
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = "c0/m0"
	}
	if _, err := client.BatchQuery(keys, protocol.QueryParams{}); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestBatchQuerySharesQueryCache: a batched key is the same by-ID query as
// its QUERY, so it is answered from the result-cache entry QUERY left.
func TestBatchQuerySharesQueryCache(t *testing.T) {
	addr, _ := startServerV2(t, nil)
	bc := dialV2(t, addr)
	want, meta, err := bc.QueryMeta("c1/m2", protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Cache != "miss" {
		t.Fatalf("QUERY cache = %q, want miss", meta.Cache)
	}
	items, err := bc.BatchQuery([]string{"c1/m2"}, protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != "" || items[0].Meta.Cache != "hit" {
		t.Fatalf("batch item: cache %q, err %q; want a hit", items[0].Meta.Cache, items[0].Err)
	}
	if !slices.Equal(items[0].Results, want) {
		t.Fatalf("batch hit %v, QUERY %v", items[0].Results, want)
	}
}
