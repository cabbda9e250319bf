// Package metastore is the Ferret toolkit's metadata manager (paper
// §4.1.3). It provides transaction-protected, crash-consistent storage for
// feature vectors, segment sketches, the mapping between data objects and
// file objects, and the persisted sketch-construction state, all in named
// tables of the embedded kvstore.
//
// All updates belonging to one object are committed in a single
// transaction, so after a crash an object is either fully present or fully
// absent — never half-ingested.
package metastore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/sketch"
)

// Table names within the kvstore.
const (
	tableObjects  = "meta:objects"  // id → object.Marshal()
	tableKeys     = "meta:keys"     // key string → id
	tableNames    = "meta:names"    // id → key string
	tableSketches = "meta:sketches" // id → SketchSet encoding; sketch-only objects only
	tableConfig   = "meta:config"   // "builder" → sketch.Builder, "nextid" → uint64
)

// SketchSet is the compact per-object record used by the filtering and
// sketch-ranking paths: the segment weights plus one sketch per segment.
// It is an order of magnitude smaller than the feature-vector record.
type SketchSet struct {
	Weights  []float32
	Sketches []sketch.Sketch
}

// Store is the metadata manager. It is safe for concurrent use.
type Store struct {
	kv *kvstore.Store

	mu     sync.Mutex
	nextID object.ID
}

// Open opens (or creates) the metadata store in dir. Crash recovery is
// inherited from the kvstore: the state observed is the last checkpoint
// plus all intact log records.
func Open(dir string, opts kvstore.Options) (*Store, error) {
	opts.Dir = dir
	kv, err := kvstore.Open(opts)
	if err != nil {
		return nil, err
	}
	s := &Store{kv: kv, nextID: 1}
	if v, ok := kv.Get(tableConfig, []byte("nextid")); ok && len(v) == 8 {
		s.nextID = object.ID(binary.BigEndian.Uint64(v))
	}
	// The persisted counter can lag the true maximum when concurrent
	// ingest transactions committed their counter records out of order;
	// repair it from the highest assigned ID so IDs are never reissued.
	var maxID object.ID
	kv.Scan(tableNames, nil, nil, func(k, v []byte) bool {
		if len(k) == 8 {
			maxID = parseID(k) // ascending scan: the last hit is the max
		}
		return true
	})
	if maxID >= s.nextID {
		s.nextID = maxID + 1
	}
	if err := s.dropStaleSketchSets(); err != nil {
		kv.Close()
		return nil, err
	}
	return s, nil
}

// staleBatch bounds the keys one dropStaleSketchSets transaction deletes.
const staleBatch = 1000

// dropStaleSketchSets deletes the sketch sets the earlier vector-store
// layout kept beside each record, so their memory comes back at the first
// restart; a set with no record is a sketch-only object's and stays.
func (s *Store) dropStaleSketchSets() error {
	if s.kv.Len(tableObjects) == 0 {
		return nil // a sketch-only store
	}
	var stale [][]byte
	s.kv.Scan(tableSketches, nil, nil, func(k, _ []byte) bool {
		stale = append(stale, k)
		return true
	})
	for len(stale) > 0 {
		txn, n := s.kv.Begin(), min(len(stale), staleBatch)
		for _, k := range stale[:n] {
			if _, ok := s.kv.Get(tableObjects, k); ok {
				txn.Delete(tableSketches, k)
			}
		}
		if err := txn.Commit(); err != nil {
			return err
		}
		stale = stale[n:]
	}
	return nil
}

// Close flushes and closes the underlying store.
func (s *Store) Close() error { return s.kv.Close() }

// Checkpoint forces a durable snapshot (see kvstore.Store.Checkpoint).
func (s *Store) Checkpoint() error { return s.kv.Checkpoint() }

// KV exposes the underlying kvstore so sibling components (the attribute
// search engine) can join the same transactions.
func (s *Store) KV() *kvstore.Store { return s.kv }

func idKey(id object.ID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

func parseID(b []byte) object.ID {
	return object.ID(binary.BigEndian.Uint64(b))
}

// AddObject ingests one object: it allocates an ID, stores the
// feature-vector record or, when sketchOnly, the sketch set (the record is
// the sketches' source otherwise), and the key↔id mapping, all in one
// transaction. Extra may add more writes (e.g.
// attribute postings) to the same transaction; it may be nil.
//
// Re-adding an existing key is an error: data acquisition deduplicates by
// key before calling AddObject.
func (s *Store) AddObject(o object.Object, set *SketchSet, sketchOnly bool, extra func(txn *kvstore.Txn, id object.ID)) (object.ID, error) {
	id, _, err := s.AddObjectRecord(o, set, sketchOnly, extra)
	return id, err
}

// AddObjectRecord is AddObject that also returns the feature-vector record
// it stored (nil when sketchOnly): the store's own immutable value, as
// ObjectRecord would return it.
func (s *Store) AddObjectRecord(o object.Object, set *SketchSet, sketchOnly bool, extra func(txn *kvstore.Txn, id object.ID)) (object.ID, []byte, error) {
	if o.Key == "" {
		return 0, nil, errors.New("metastore: object key is empty")
	}
	if len(o.Key) > math.MaxUint16 { // the record stores its length in 16 bits
		return 0, nil, fmt.Errorf("metastore: key is %d bytes, longest allowed is %d", len(o.Key), math.MaxUint16)
	}
	key := []byte(o.Key)
	if _, exists := s.kv.Get(tableKeys, key); exists {
		return 0, nil, fmt.Errorf("metastore: key %q already present", o.Key)
	}
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	next := s.nextID
	s.mu.Unlock()

	// The transaction owns what it is given, and the store keeps it: one
	// key and one ID slice serve every table, and the record is encoded
	// once, straight into the value the store holds.
	txn := s.kv.Begin()
	ik := idKey(id)
	var rec []byte
	if !sketchOnly {
		rec = encodeObjectRecord(&o)
		txn.Put(tableObjects, ik, rec)
	} else if set != nil {
		txn.Put(tableSketches, ik, marshalSketchSet(set))
	}
	txn.Put(tableKeys, key, ik)
	txn.Put(tableNames, ik, key)
	txn.Put(tableConfig, []byte("nextid"), idKey(next))
	if extra != nil {
		extra(txn, id)
	}
	if err := txn.Commit(); err != nil {
		return 0, nil, err
	}
	return id, rec, nil
}

// GetObject returns the stored feature-vector record for id, decoded into a
// copy. In sketch-only databases this reports false for every object.
func (s *Store) GetObject(id object.ID) (object.Object, bool) {
	rec, ok := s.ObjectRecord(id)
	if !ok {
		return object.Object{}, false
	}
	key, enc, err := splitRecord(rec)
	if err != nil {
		return object.Object{}, false
	}
	o, err := object.Unmarshal(enc)
	if err != nil {
		return object.Object{}, false
	}
	o.ID, o.Key = id, string(key)
	return o, true
}

// ObjectRecord returns id's feature-vector record: the store's own
// immutable value, which the caller may keep but must not modify (read it
// with ViewRecord).
func (s *Store) ObjectRecord(id object.ID) ([]byte, bool) {
	return s.kv.Get(tableObjects, idKey(id))
}

// ViewRecord views a feature-vector record's segments in place into
// segs[:0] (object.View): rec must stay unmodified while they are in use.
func ViewRecord(rec []byte, segs []object.Segment) ([]object.Segment, error) {
	_, enc, err := splitRecord(rec)
	if err != nil {
		return segs[:0], err
	}
	return object.View(enc, segs)
}

// encodeObjectRecord stores the external key alongside the segment data so
// GetObject can populate Object.Key without a second lookup:
// keyLen(uint16) | key | object.Marshal().
func encodeObjectRecord(o *object.Object) []byte {
	buf := make([]byte, 2+len(o.Key)+o.MarshalSize())
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(o.Key)))
	copy(buf[2:], o.Key)
	o.MarshalTo(buf[2+len(o.Key):])
	return buf
}

// splitRecord splits an encodeObjectRecord record into the key and the
// object.Marshal encoding.
func splitRecord(rec []byte) (key, enc []byte, err error) {
	if len(rec) < 2 {
		return nil, nil, errors.New("metastore: short object record")
	}
	klen := int(binary.LittleEndian.Uint16(rec[0:]))
	if 2+klen > len(rec) {
		return nil, nil, errors.New("metastore: truncated object key")
	}
	return rec[2 : 2+klen], rec[2+klen:], nil
}

// GetSketchSet returns the sketch record of sketch-only object id.
func (s *Store) GetSketchSet(id object.ID) (*SketchSet, bool) {
	v, ok := s.kv.Get(tableSketches, idKey(id))
	if !ok {
		return nil, false
	}
	set, err := unmarshalSketchSet(v)
	if err != nil {
		return nil, false
	}
	return set, true
}

// LookupKey resolves an external key to its object ID.
func (s *Store) LookupKey(key string) (object.ID, bool) {
	v, ok := s.kv.Get(tableKeys, []byte(key))
	if !ok || len(v) != 8 {
		return 0, false
	}
	return parseID(v), true
}

// LookupKeyBytes is LookupKey for a caller-owned byte slice: the server's
// binary protocol resolves keys straight out of the wire frame without a
// string conversion (the kvstore compares bytes and never retains the key).
func (s *Store) LookupKeyBytes(key []byte) (object.ID, bool) {
	v, ok := s.kv.Get(tableKeys, key)
	if !ok || len(v) != 8 {
		return 0, false
	}
	return parseID(v), true
}

// Key returns the external key of id ("" if unknown).
func (s *Store) Key(id object.ID) string {
	v, _ := s.kv.Get(tableNames, idKey(id))
	return string(v)
}

// Count returns the number of ingested objects.
func (s *Store) Count() int { return s.kv.Len(tableNames) }

// ForEachObjectRecord streams all feature-vector records in ID order with the
// keys they hold (nil in a record ViewRecord rejects as short): the store's
// own immutable values (see ObjectRecord). fn returns false to stop.
func (s *Store) ForEachObjectRecord(fn func(id object.ID, key, rec []byte) bool) {
	s.kv.Scan(tableObjects, nil, nil, func(k, v []byte) bool {
		key, _, _ := splitRecord(v)
		return fn(parseID(k), key, v)
	})
}

// ForEachSketchSet streams all sketch records (sketch-only objects') in ID order.
func (s *Store) ForEachSketchSet(fn func(id object.ID, set *SketchSet) bool) {
	s.kv.Scan(tableSketches, nil, nil, func(k, v []byte) bool {
		set, err := unmarshalSketchSet(v)
		if err != nil {
			return true
		}
		return fn(parseID(k), set)
	})
}

// DeleteObject removes all metadata of id in one transaction. Extra may
// remove associated records (attribute postings) in the same transaction.
func (s *Store) DeleteObject(id object.ID, extra func(txn *kvstore.Txn, id object.ID)) error {
	key := s.Key(id)
	txn := s.kv.Begin()
	ik := idKey(id)
	txn.Delete(tableObjects, ik)
	txn.Delete(tableSketches, ik)
	txn.Delete(tableNames, ik)
	if key != "" {
		txn.Delete(tableKeys, []byte(key))
	}
	if extra != nil {
		extra(txn, id)
	}
	return txn.Commit()
}

// SaveBuilder persists the sketch-construction state so the database keeps
// producing compatible sketches after restart.
func (s *Store) SaveBuilder(b *sketch.Builder) error {
	enc, err := b.MarshalBinary()
	if err != nil {
		return err
	}
	return s.kv.Put(tableConfig, []byte("builder"), enc)
}

// LoadBuilder restores a previously saved sketch builder, reporting whether
// one was present.
func (s *Store) LoadBuilder() (*sketch.Builder, bool, error) {
	v, ok := s.kv.Get(tableConfig, []byte("builder"))
	if !ok {
		return nil, false, nil
	}
	var b sketch.Builder
	if err := b.UnmarshalBinary(v); err != nil {
		return nil, false, err
	}
	return &b, true, nil
}

// marshalSketchSet layout: count(uint32) | words(uint32) |
// count×(weight float32) | count×words×uint64.
func marshalSketchSet(set *SketchSet) []byte {
	count := len(set.Sketches)
	words := 0
	if count > 0 {
		words = len(set.Sketches[0])
	}
	buf := make([]byte, 8+4*count+8*count*words)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(count))
	le.PutUint32(buf[4:], uint32(words))
	off := 8
	for i := 0; i < count; i++ {
		var w float32
		if i < len(set.Weights) {
			w = set.Weights[i]
		}
		le.PutUint32(buf[off:], math.Float32bits(w))
		off += 4
	}
	for _, sk := range set.Sketches {
		if len(sk) != words {
			panic("metastore: ragged sketch set")
		}
		for _, word := range sk {
			le.PutUint64(buf[off:], word)
			off += 8
		}
	}
	return buf
}

func unmarshalSketchSet(data []byte) (*SketchSet, error) {
	if len(data) < 8 {
		return nil, errors.New("metastore: short sketch set")
	}
	le := binary.LittleEndian
	count := int(le.Uint32(data[0:]))
	words := int(le.Uint32(data[4:]))
	if count > 1<<24 || words > 1<<20 {
		return nil, errors.New("metastore: implausible sketch set counts")
	}
	want := 8 + 4*count + 8*count*words
	if count < 0 || words < 0 || len(data) != want {
		return nil, fmt.Errorf("metastore: sketch set is %d bytes, want %d", len(data), want)
	}
	set := &SketchSet{
		Weights:  make([]float32, count),
		Sketches: make([]sketch.Sketch, count),
	}
	off := 8
	for i := 0; i < count; i++ {
		set.Weights[i] = math.Float32frombits(le.Uint32(data[off:]))
		off += 4
	}
	for i := 0; i < count; i++ {
		sk := make(sketch.Sketch, words)
		for w := 0; w < words; w++ {
			sk[w] = le.Uint64(data[off:])
			off += 8
		}
		set.Sketches[i] = sk
	}
	return set, nil
}
