package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/synth"
)

// imageConfig is the benchmark's image_engine configuration for a corpus of
// objects: 96-bit sketches of 14-d segments, rank threshold 2, the Hamming
// index, five storage segments and no background compactor.
func imageConfig(dir string, objects int) Config {
	max := make([]float32, 14)
	for i := range max {
		max[i] = 1
	}
	return Config{
		Dir:           dir,
		Sketch:        sketch.Params{N: 96, K: 1, Min: make([]float32, 14), Max: max, Seed: 201},
		Store:         kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: time.Second},
		RankThreshold: 2,
		HIndex:        HIndexParams{Enable: true},
		Segments:      SegmentParams{SealEntries: objects*4096/20000 + 1, Interval: -1},
	}
}

// shapeConfig is the benchmark's shape configuration: 800-bit sketches of
// 544-d shapes and the Hamming index. The benchmark compacts its bulk load;
// here the caller does, with no background compactor beside it.
func shapeConfig(dir string) Config {
	max := make([]float32, 544)
	for i := range max {
		max[i] = 2
	}
	return Config{
		Dir:      dir,
		Sketch:   sketch.Params{N: 800, K: 1, Min: make([]float32, 544), Max: max, Seed: 203},
		Store:    kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: time.Second},
		HIndex:   HIndexParams{Enable: true},
		Segments: SegmentParams{Interval: -1},
	}
}

func ingestAll(t testing.TB, e *Engine, objs []object.Object) []object.ID {
	t.Helper()
	ids := make([]object.ID, len(objs))
	for i, o := range objs {
		id, err := e.Ingest(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// every returns every step-th ID.
func every(ids []object.ID, step int) []object.ID {
	var out []object.ID
	for i := 0; i < len(ids); i += step {
		out = append(out, ids[i])
	}
	return out
}

// flatView is a view's live entries in ID order with their arena rows laid
// end to end: what a reopen must rebuild bit for bit.
type flatView struct {
	ids     []object.ID
	keys    []string
	starts  []int32  // live entry i owns flat rows [starts[i], starts[i+1])
	weights []uint32 // float32 bits per row
	words   []uint64
}

func flatten(v *view) flatView {
	f := flatView{starts: []int32{0}}
	for g, ent := range v.entries {
		if v.isDead(g) {
			continue
		}
		seg, li := v.segOf(g)
		lo, hi := seg.arena.rowsOf(li)
		f.ids = append(f.ids, ent.id)
		f.keys = append(f.keys, ent.key)
		f.starts = append(f.starts, f.starts[len(f.starts)-1]+int32(hi-lo))
		for r := lo; r < hi; r++ {
			f.weights = append(f.weights, math.Float32bits(seg.arena.weight[r]))
		}
		f.words = append(f.words, seg.arena.words[lo*seg.arena.wps:hi*seg.arena.wps]...)
	}
	return f
}

// TestReopenArenaMatchesIngest: the arena Open rebuilds from the records
// equals, bit for bit, the one ingest built — sketch words, weights, row
// ranges, IDs and keys — across seals, a merge and deletes.
func TestReopenArenaMatchesIngest(t *testing.T) {
	const objects = 700
	dir := t.TempDir()
	cfg := imageConfig(dir, objects)
	cfg.Segments.SealEntries = 64
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := ingestAll(t, e, synth.MixedImageObjects(objects, 11))
	checkSealedExact(t, e.cur.Load())
	for i := 0; i < len(ids); i += 7 {
		if err := e.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !e.compactOnce() {
		t.Fatal("no merge ran")
	}
	live := e.cur.Load()
	if len(live.segs) < 3 || live.deleted == 0 {
		t.Fatalf("%d segments, %d tombstones: want seals, a merge and deletes", len(live.segs), live.deleted)
	}
	checkSealedExact(t, live)
	want := flatten(live)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openEngine(t, cfg)
	v := e2.cur.Load()
	if err := e2.checkSegInvariants(v); err != nil {
		t.Fatal(err)
	}
	if got := flatten(v); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened arena differs: %d entries, %d rows, %d words; ingest built %d, %d, %d",
			len(got.ids), len(got.weights), len(got.words), len(want.ids), len(want.weights), len(want.words))
	}
	checkSealedExact(t, v)
}

// checkSealedExact fails unless every sealed segment's arena arrays are
// exactly as long as their capacity: sealed data keeps no append slack.
func checkSealedExact(t *testing.T, v *view) {
	t.Helper()
	for si, s := range v.sealed() {
		a := &s.arena
		if len(a.words) != cap(a.words) || len(a.entry) != cap(a.entry) || len(a.start) != cap(a.start) || len(a.weight) != cap(a.weight) {
			t.Fatalf("sealed segment %d has spare capacity: words %d/%d, rows %d/%d, starts %d/%d, weights %d/%d", si,
				len(a.words), cap(a.words), len(a.entry), cap(a.entry), len(a.start), cap(a.start), len(a.weight), cap(a.weight))
		}
	}
}

// oldSketchSet encodes a sketch set as stores written before records became
// a vector store's only sketch source kept one beside each record:
// count(uint32) | words(uint32) | count×weight(float32) | count×words×uint64.
func oldSketchSet(a *sketchArena, lo, hi int) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint32(nil, uint32(hi-lo))
	buf = le.AppendUint32(buf, uint32(a.wps))
	for r := lo; r < hi; r++ {
		buf = le.AppendUint32(buf, math.Float32bits(a.weight[r]))
	}
	for _, w := range a.words[lo*a.wps : hi*a.wps] {
		buf = le.AppendUint64(buf, w)
	}
	return buf
}

// reopenAnswers runs every query in each mode by object and by ID.
func reopenAnswers(t *testing.T, e *Engine, queries []object.Object, ids []object.ID, modes []Mode) [][]Result {
	t.Helper()
	var out [][]Result
	for _, mode := range modes {
		opt := QueryOptions{Mode: mode, K: 20}
		for _, q := range queries {
			r, err := runQuery(e, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		for _, id := range ids {
			r, err := runQueryByID(e, id, opt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
	}
	return out
}

// TestReopenOldVectorStore: a vector store that also holds every object's
// sketch set, as stores written before did, reopens with bit-identical
// answers, and Open drops those sets.
func TestReopenOldVectorStore(t *testing.T) {
	const objects = 400
	dir := t.TempDir()
	cfg := imageConfig(dir, objects)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := ingestAll(t, e, synth.MixedImageObjects(objects, 12))
	for _, id := range ids[:40] {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	queries := synth.MixedImageObjects(8, 1001)
	byID := every(ids[40:], 45)
	modes := []Mode{Filtering, BruteForceOriginal, BruteForceSketch}
	want := reopenAnswers(t, e, queries, byID, modes)
	v := e.cur.Load()
	for g, ent := range v.entries {
		if v.isDead(g) {
			continue
		}
		seg, li := v.segOf(g)
		lo, hi := seg.arena.rowsOf(li)
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], uint64(ent.id))
		if err := e.Meta().KV().Put("meta:sketches", k[:], oldSketchSet(&seg.arena, lo, hi)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openEngine(t, cfg)
	if n := e2.Meta().KV().Len("meta:sketches"); n != 0 {
		t.Fatalf("%d stale sketch sets survived the reopen", n)
	}
	if got := reopenAnswers(t, e2, queries, byID, modes); !reflect.DeepEqual(got, want) {
		t.Fatal("answers differ after reopening the old-layout store")
	}
}

// TestSketchOnlyReopenOfVectorStore: a vector store reopened sketch-only
// builds its sketches from its records and answers as a sketch-only store of
// the same corpus does, also after it has ingested sketch-only objects and
// reopened again from both kinds of source; reopened as a vector store, it
// then refuses to open.
func TestSketchOnlyReopenOfVectorStore(t *testing.T) {
	const objects, more = 300, 60
	objs := synth.MixedImageObjects(objects+more, 13)
	vecCfg := imageConfig(t.TempDir(), objects)
	e, err := Open(vecCfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := ingestAll(t, e, objs[:objects])
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := vecCfg
	cfg.SketchOnly = true
	reopened, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	freshCfg := cfg
	freshCfg.Dir = t.TempDir()
	fresh := openEngine(t, freshCfg)
	if got := ingestAll(t, fresh, objs[:objects]); !slices.Equal(got, ids) {
		t.Fatal("the sketch-only store assigned other IDs")
	}
	queries := synth.MixedImageObjects(8, 1001)
	byID := every(ids, 30)
	modes := []Mode{Filtering, BruteForceSketch}
	check := func(e *Engine) {
		t.Helper()
		if got, want := reopenAnswers(t, e, queries, byID, modes), reopenAnswers(t, fresh, queries, byID, modes); !reflect.DeepEqual(got, want) {
			t.Fatal("the reopened vector store answers otherwise than a sketch-only store of the same corpus")
		}
	}
	check(reopened)

	ingestAll(t, reopened, objs[objects:])
	ingestAll(t, fresh, objs[objects:])
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	check(openEngine(t, cfg))
	if e, err := Open(vecCfg); err == nil {
		e.Close()
		t.Fatal("a store holding sketch-only objects opened as a vector store")
	}
}

// TestResidentBytesPerObject pins the engine's live heap per object after a
// bulk load with the benchmark's image and shape configurations: records,
// B-tree items, arena, Hamming index and entries. The inputs are allocated
// before the baseline. Each bound is the figure measured at this engine plus
// 10%; an engine that also kept every sketch set in the store, in B-tree
// arrays split half-empty, held 2 207 bytes per image and 3 309 per shape.
func TestResidentBytesPerObject(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func(dir string, n int) Config
		objs  func(n int, seed int64) []object.Object
		n     int
		bound float64
	}{
		{"image", imageConfig, synth.MixedImageObjects, 5000, 1888},
		{"shape", func(dir string, _ int) Config { return shapeConfig(dir) }, synth.MixedShapeObjects, 2000, 3216},
	} {
		t.Run(tc.name, func(t *testing.T) {
			objs := tc.objs(tc.n, 3)
			e := openEngine(t, tc.cfg(t.TempDir(), tc.n))
			before := liveHeap()
			ingestAll(t, e, objs)
			if tc.name == "shape" {
				e.Compact() // the benchmark's set-up compacts the shape load
			}
			per := float64(liveHeap()-before) / float64(tc.n)
			runtime.KeepAlive(objs)
			t.Logf("%.0f bytes per object", per)
			if per > tc.bound {
				t.Fatalf("%.0f bytes per %s, bound %.0f", per, tc.name, tc.bound)
			}
		})
	}
}

// liveHeap is the live heap after two forced collections (the second
// empties the sync.Pool victim caches).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkReopen times Open of a closed store holding the benchmark's
// corpora, 20 000 images and 40 000 shapes: kvstore recovery, the scan of
// the records and the parallel rebuild of their sketches, the seal that
// indexes them. Close is not timed.
func BenchmarkReopen(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
		objs func() []object.Object
	}{
		{"image", imageConfig(b.TempDir(), 20000), func() []object.Object { return synth.MixedImageObjects(20000, 3) }},
		{"shape", shapeConfig(b.TempDir()), func() []object.Object { return synth.MixedShapeObjects(40000, 3) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e, err := Open(tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			if e.Count() == 0 { // filled by the first of the runs b.N grows through
				ingestAll(b, e, tc.objs())
			}
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := Open(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if e.Count() == 0 {
					b.Fatal("reopened an empty store")
				}
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/open")
		})
	}
}
