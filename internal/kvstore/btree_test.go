package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

func TestBtreeBasic(t *testing.T) {
	bt := newBtree()
	if _, ok := bt.Get([]byte("a")); ok {
		t.Fatal("empty tree returned a value")
	}
	bt.Put([]byte("a"), []byte("1"))
	bt.Put([]byte("b"), []byte("2"))
	bt.Put([]byte("a"), []byte("3")) // replace
	if bt.Len() != 2 {
		t.Fatalf("Len = %d, want 2", bt.Len())
	}
	if v, ok := bt.Get([]byte("a")); !ok || string(v) != "3" {
		t.Fatalf("Get a = %q %v", v, ok)
	}
	if !bt.Delete([]byte("a")) {
		t.Fatal("Delete a = false")
	}
	if bt.Delete([]byte("a")) {
		t.Fatal("double delete succeeded")
	}
	if bt.Len() != 1 {
		t.Fatalf("Len after delete = %d", bt.Len())
	}
}

// TestBtreeModel compares the tree against a map model through a long
// random operation sequence, checking Get, Len, and full ordered iteration.
func TestBtreeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bt := newBtree()
	model := map[string]string{}
	for step := 0; step < 20000; step++ {
		key := fmt.Sprintf("key-%04d", rng.Intn(3000))
		switch rng.Intn(10) {
		case 0, 1, 2: // delete
			_, inModel := model[key]
			if got := bt.Delete([]byte(key)); got != inModel {
				t.Fatalf("step %d: Delete(%s) = %v, model %v", step, key, got, inModel)
			}
			delete(model, key)
		default: // put
			val := fmt.Sprintf("val-%d", step)
			bt.Put([]byte(key), []byte(val))
			model[key] = val
		}
		if bt.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, bt.Len(), len(model))
		}
	}
	// Spot-check gets.
	for k, v := range model {
		got, ok := bt.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q %v, want %q", k, got, ok, v)
		}
	}
	// Full iteration must be sorted and match the model exactly.
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	bt.AscendRange(nil, nil, func(k, v []byte) bool {
		if i >= len(keys) {
			t.Fatalf("iteration yielded extra key %q", k)
		}
		if string(k) != keys[i] {
			t.Fatalf("iteration key %d = %q, want %q", i, k, keys[i])
		}
		if string(v) != model[keys[i]] {
			t.Fatalf("iteration value mismatch at %q", k)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("iteration yielded %d keys, want %d", i, len(keys))
	}
}

func TestBtreeAscendRangeBounds(t *testing.T) {
	bt := newBtree()
	for i := 0; i < 100; i++ {
		bt.Put([]byte(fmt.Sprintf("%03d", i)), []byte{byte(i)})
	}
	var got []string
	bt.AscendRange([]byte("010"), []byte("015"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"010", "011", "012", "013", "014"}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	bt.AscendRange(nil, nil, func(k, v []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
	// Bounds outside all keys.
	n := 0
	bt.AscendRange([]byte("zzz"), nil, func(k, v []byte) bool { n++; return true })
	if n != 0 {
		t.Fatalf("out-of-range scan visited %d", n)
	}
}

// TestBtreeDeepDeletes drives enough sequential churn through the tree to
// exercise splits, borrows (both directions), merges and root shrinking.
func TestBtreeDeepDeletes(t *testing.T) {
	bt := newBtree()
	const n = 5000
	for i := 0; i < n; i++ {
		bt.Put([]byte(fmt.Sprintf("%06d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	// Delete ascending (stresses borrow-from-right / merges on the left).
	for i := 0; i < n/2; i++ {
		if !bt.Delete([]byte(fmt.Sprintf("%06d", i))) {
			t.Fatalf("delete %d failed", i)
		}
	}
	// Delete descending (stresses borrow-from-left).
	for i := n - 1; i >= n/2; i-- {
		if !bt.Delete([]byte(fmt.Sprintf("%06d", i))) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", bt.Len())
	}
	if !bt.root.leaf() || len(bt.root.keys) != 0 {
		t.Fatal("root did not shrink back to an empty leaf")
	}
}

// TestBtreeInvariants verifies the structural B-tree invariants after a
// random workload: key-count bounds per node, sorted keys, child counts.
func TestBtreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bt := newBtree()
	live := map[string]bool{}
	for step := 0; step < 30000; step++ {
		key := fmt.Sprintf("%05d", rng.Intn(8000))
		if rng.Intn(3) == 0 {
			bt.Delete([]byte(key))
			delete(live, key)
		} else {
			bt.Put([]byte(key), []byte("x"))
			live[key] = true
		}
	}
	depth := -1
	var check func(n *bnode, root bool, level int)
	var leafLevel = -1
	check = func(n *bnode, root bool, level int) {
		if !root {
			if len(n.keys) < minDeg-1 || len(n.keys) > maxKeys {
				t.Fatalf("node has %d keys", len(n.keys))
			}
		}
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
				t.Fatal("keys out of order within node")
			}
		}
		if n.leaf() {
			if leafLevel == -1 {
				leafLevel = level
			} else if leafLevel != level {
				t.Fatalf("leaves at different depths: %d vs %d", leafLevel, level)
			}
			return
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("node has %d keys but %d children", len(n.keys), len(n.children))
		}
		for _, c := range n.children {
			check(c, false, level+1)
		}
	}
	check(bt.root, true, 0)
	_ = depth
	if bt.Len() != len(live) {
		t.Fatalf("Len = %d, model %d", bt.Len(), len(live))
	}
}

// TestBtreeBytesPerItem pins the tree's live heap per item for 50 000
// eight-byte keys with eight-byte values, inserted in ascending order (how
// the ID-keyed tables fill, and how recovery reloads every table) and
// shuffled. A split that left its left half in the full node's arrays held
// 101 bytes per ascending item.
func TestBtreeBytesPerItem(t *testing.T) {
	const n = 50000
	for _, tc := range []struct {
		name  string
		order []int
		bound float64 // bytes per item: the figure measured at this tree, plus 10%
	}{
		{"ascending", nil, 57},
		{"shuffled", rand.New(rand.NewSource(3)).Perm(n), 78},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The keys and values are allocated before the baseline, so the
			// delta is the tree's own nodes and arrays.
			data := make([]byte, 16*n)
			for i := 0; i < n; i++ {
				j := i
				if tc.order != nil {
					j = tc.order[i]
				}
				binary.BigEndian.PutUint64(data[16*i:], uint64(j))
			}
			before := liveHeap()
			bt := newBtree()
			for i := 0; i < n; i++ {
				bt.Put(data[16*i:16*i+8:16*i+8], data[16*i+8:16*i+16:16*i+16])
			}
			per := float64(liveHeap()-before) / n
			runtime.KeepAlive(bt)
			t.Logf("%.1f bytes per item", per)
			if per > tc.bound {
				t.Fatalf("%.1f bytes per item, bound %.1f", per, tc.bound)
			}
		})
	}
}

// liveHeap is the live heap after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func BenchmarkBtreePut(b *testing.B) {
	bt := newBtree()
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%012d", i*2654435761%1000000007))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Put(keys[i], keys[i])
	}
}

func BenchmarkBtreeGet(b *testing.B) {
	bt := newBtree()
	const n = 100000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("%012d", i))
		bt.Put(k, k)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Get([]byte(fmt.Sprintf("%012d", i%n)))
	}
}
