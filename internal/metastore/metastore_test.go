package metastore

import (
	"fmt"
	"slices"
	"testing"

	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/telemetry"
)

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testBuilder(t *testing.T) *sketch.Builder {
	t.Helper()
	b, err := sketch.NewBuilder(sketch.Params{
		N: 64, K: 1,
		Min: []float32{0, 0, 0}, Max: []float32{1, 1, 1},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func makeObj(key string, nseg int) object.Object {
	w := make([]float32, nseg)
	vs := make([][]float32, nseg)
	for i := 0; i < nseg; i++ {
		w[i] = 1
		vs[i] = []float32{float32(i) * 0.1, 0.5, 0.9}
	}
	o, err := object.New(key, w, vs)
	if err != nil {
		panic(err)
	}
	return o
}

func sketchSet(b *sketch.Builder, o object.Object) *SketchSet {
	set := &SketchSet{}
	for _, seg := range o.Segments {
		set.Weights = append(set.Weights, seg.Weight)
		set.Sketches = append(set.Sketches, b.Build(seg.Vec))
	}
	return set
}

func TestAddAndGetObject(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	b := testBuilder(t)
	o := makeObj("img/dog.jpg", 3)
	id, err := s.AddObject(o, sketchSet(b, o), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero ID")
	}
	got, ok := s.GetObject(id)
	if !ok {
		t.Fatal("object not found")
	}
	if got.Key != "img/dog.jpg" || len(got.Segments) != 3 || got.ID != id {
		t.Fatalf("got %+v", got)
	}
	// The record is a vector store's one source of the object's sketches.
	if set, ok := s.GetSketchSet(id); ok {
		t.Fatalf("a vector store kept a sketch set: %+v", set)
	}
	if lid, ok := s.LookupKey("img/dog.jpg"); !ok || lid != id {
		t.Fatalf("LookupKey = %d %v", lid, ok)
	}
	if s.Key(id) != "img/dog.jpg" {
		t.Fatalf("Key = %q", s.Key(id))
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestAddObjectDuplicateKey(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	o := makeObj("same", 1)
	if _, err := s.AddObject(o, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddObject(o, nil, false, nil); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestAddObjectEmptyKey(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	o := makeObj("", 1)
	if _, err := s.AddObject(o, nil, false, nil); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestSketchOnlyMode(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	b := testBuilder(t)
	o := makeObj("audio/x.wav", 2)
	id, err := s.AddObject(o, sketchSet(b, o), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetObject(id); ok {
		t.Fatal("sketch-only mode stored feature vectors")
	}
	if set, ok := s.GetSketchSet(id); !ok || len(set.Sketches) != 2 || len(set.Weights) != 2 {
		t.Fatalf("sketch set: %+v %v", set, ok)
	}
}

func TestIDsPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	id1, _ := s.AddObject(makeObj("a", 1), nil, false, nil)
	id2, _ := s.AddObject(makeObj("b", 1), nil, false, nil)
	s.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	id3, err := s2.AddObject(makeObj("c", 1), nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id3 <= id2 || id2 <= id1 {
		t.Fatalf("IDs not monotone across reopen: %d %d %d", id1, id2, id3)
	}
	if s2.Count() != 3 {
		t.Fatalf("Count = %d", s2.Count())
	}
}

func TestForEachObjectRecordOrderAndStop(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.AddObject(makeObj(fmt.Sprintf("k%d", i), 1), nil, false, nil)
	}
	var ids []object.ID
	s.ForEachObjectRecord(func(id object.ID, key, rec []byte) bool {
		ids = append(ids, id)
		o, _ := s.GetObject(id)
		if string(key) != o.Key {
			t.Errorf("record %d holds key %q, GetObject gives %q", id, key, o.Key)
		}
		if segs, err := ViewRecord(rec, nil); err != nil || len(segs) != 1 || !slices.Equal(segs[0].Vec, o.Segments[0].Vec) {
			t.Errorf("record %d views as %v, %v; GetObject gives %v", id, segs, err, o.Segments)
		}
		return len(ids) < 5
	})
	if len(ids) != 5 {
		t.Fatalf("visited %d, want 5", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not ascending")
		}
	}
}

// TestForEachSketchSet visits the sketch sets of the sketch-only objects
// only: a vector object's sketches are derived from its record.
func TestForEachSketchSet(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	b := testBuilder(t)
	for i := 0; i < 8; i++ {
		o := makeObj(fmt.Sprintf("k%d", i), 2)
		s.AddObject(o, sketchSet(b, o), i%3 == 2, nil)
	}
	n := 0
	s.ForEachSketchSet(func(id object.ID, set *SketchSet) bool {
		if len(set.Sketches) != 2 {
			t.Fatalf("id %d: %d sketches", id, len(set.Sketches))
		}
		n++
		return true
	})
	if n != 2 {
		t.Fatalf("visited %d sketch sets, want the 2 sketch-only objects'", n)
	}
}

// TestDeleteObject deletes a vector object (its record) and a sketch-only
// one (its sketch set) with their key mappings.
func TestDeleteObject(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	b := testBuilder(t)
	o := makeObj("gone", 2)
	id, _ := s.AddObject(o, sketchSet(b, o), false, nil)
	so := makeObj("gone-sketch", 2)
	sid, _ := s.AddObject(so, sketchSet(b, so), true, nil)
	for _, id := range []object.ID{id, sid} {
		if err := s.DeleteObject(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.GetObject(id); ok {
		t.Fatal("object survived delete")
	}
	if _, ok := s.GetSketchSet(sid); ok {
		t.Fatal("sketch set survived delete")
	}
	if _, ok := s.LookupKey("gone"); ok {
		t.Fatal("key mapping survived delete")
	}
	if _, ok := s.LookupKey("gone-sketch"); ok {
		t.Fatal("sketch-only key mapping survived delete")
	}
	// Key can be re-ingested after deletion.
	if _, err := s.AddObject(makeObj("gone", 1), nil, false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPersistence(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	b := testBuilder(t)
	if err := s.SaveBuilder(b); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	got, ok, err := s2.LoadBuilder()
	if err != nil || !ok {
		t.Fatalf("LoadBuilder: %v %v", ok, err)
	}
	v := []float32{0.3, 0.6, 0.9}
	if sketch.Hamming(b.Build(v), got.Build(v)) != 0 {
		t.Fatal("restored builder produces different sketches")
	}
}

func TestLoadBuilderAbsent(t *testing.T) {
	s := openTest(t, t.TempDir())
	defer s.Close()
	if _, ok, err := s.LoadBuilder(); ok || err != nil {
		t.Fatalf("LoadBuilder on empty store: %v %v", ok, err)
	}
}

func TestSketchSetRoundTrip(t *testing.T) {
	set := &SketchSet{
		Weights:  []float32{0.25, 0.75},
		Sketches: []sketch.Sketch{{0xdeadbeef, 1}, {42, 0}},
	}
	got, err := unmarshalSketchSet(marshalSketchSet(set))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sketches) != 2 || got.Weights[1] != 0.75 || got.Sketches[0][0] != 0xdeadbeef {
		t.Fatalf("round trip: %+v", got)
	}
	// Empty set round-trips too.
	empty, err := unmarshalSketchSet(marshalSketchSet(&SketchSet{}))
	if err != nil || len(empty.Sketches) != 0 {
		t.Fatalf("empty set: %+v %v", empty, err)
	}
	if _, err := unmarshalSketchSet([]byte{1, 2}); err == nil {
		t.Fatal("short encoding accepted")
	}
	if _, err := unmarshalSketchSet(append(marshalSketchSet(set), 9)); err == nil {
		t.Fatal("oversized encoding accepted")
	}
}

func TestCrashConsistentIngest(t *testing.T) {
	// The per-object transaction must keep key↔id and each object's one
	// sketch source aligned after recovery: a record for a vector object, a
	// sketch set for a sketch-only one.
	dir := t.TempDir()
	s := openTest(t, dir)
	b := testBuilder(t)
	for i := 0; i < 20; i++ {
		o := makeObj(fmt.Sprintf("obj%02d", i), 2)
		if _, err := s.AddObject(o, sketchSet(b, o), i%4 == 3, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	if s2.Count() != 20 {
		t.Fatalf("Count = %d", s2.Count())
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("obj%02d", i)
		id, ok := s2.LookupKey(key)
		if !ok || s2.Key(id) != key {
			t.Fatalf("key mapping broken for %q", key)
		}
		_, rec := s2.ObjectRecord(id)
		_, set := s2.GetSketchSet(id)
		if sketchOnly := i%4 == 3; rec == sketchOnly || set != sketchOnly {
			t.Errorf("%q (sketch-only %t): record %t, sketch set %t", key, sketchOnly, rec, set)
		}
	}
}

// TestStaleSketchSetsDropped reopens a vector store written when every
// object also kept its sketch set: Open deletes each set whose object has a
// record, in transactions of at most staleBatch keys, and keeps the sketch
// sets of sketch-only objects.
func TestStaleSketchSetsDropped(t *testing.T) {
	const objects = 2*staleBatch + 500
	dir := t.TempDir()
	s := openTest(t, dir)
	b := testBuilder(t)
	for i := 0; i < objects; i++ {
		o := makeObj(fmt.Sprintf("obj%05d", i), 2)
		sketchOnly := i%100 == 0
		id, err := s.AddObject(o, sketchSet(b, o), sketchOnly, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sketchOnly { // what AddObject wrote beside the record before
			if err := s.KV().Put(tableSketches, idKey(id), marshalSketchSet(sketchSet(b, o))); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()

	// Every commit syncs: the WAL's fsync count bounds the commit count.
	reg := telemetry.NewRegistry()
	s2, err := Open(dir, kvstore.Options{Sync: kvstore.SyncEveryCommit, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.KV().Len(tableSketches); n != objects/100 {
		t.Fatalf("%d sketch sets after reopen, want the %d sketch-only objects'", n, objects/100)
	}
	stale := objects - objects/100
	if fsyncs, want := reg.Counter("ferret_store_wal_fsyncs_total", "").Value(), (stale+staleBatch-1)/staleBatch; fsyncs < uint64(want) {
		t.Fatalf("%d stale sketch sets deleted in %d commits, want at least %d", stale, fsyncs, want)
	}
	if s2.Count() != objects {
		t.Fatalf("Count = %d", s2.Count())
	}
}
