package vector

import (
	"bytes"
	"testing"
)

// TestPrefetch: Prefetch accepts every range a caller can hand it — nil, an
// empty slice, one byte, a start that is not line-aligned, a range ending on
// its backing array's last byte, and non-byte elements — allocates nothing,
// and leaves every byte as it was.
func TestPrefetch(t *testing.T) {
	buf := make([]byte, 4096+1)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	want := bytes.Clone(buf)
	cases := []struct {
		name string
		b    []byte
	}{
		{"nil", nil},
		{"empty", buf[:0]},
		{"empty-at-end", buf[len(buf):]},
		{"one-byte", buf[5:6]},
		{"unaligned", buf[3:200]},
		{"to-last-byte", buf[1000:]},
		{"whole", buf},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, func() { Prefetch(c.b) }); allocs != 0 {
				t.Errorf("Prefetch allocates %.1f objects, want 0", allocs)
			}
			if !bytes.Equal(buf, want) {
				t.Fatal("Prefetch changed the bytes it hinted")
			}
		})
	}
	words := []uint64{1, 2, 3}
	type rec struct {
		id  uint64
		key string
	}
	recs := []rec{{1, "a"}, {2, "b"}}
	if allocs := testing.AllocsPerRun(100, func() {
		Prefetch(words[1:])
		Prefetch(recs[1:2])
		Prefetch([]uint64(nil))
	}); allocs != 0 {
		t.Errorf("Prefetch of words and structs allocates %.1f objects, want 0", allocs)
	}
	if words[1] != 2 || recs[1].key != "b" {
		t.Fatal("Prefetch changed the elements it hinted")
	}
}
