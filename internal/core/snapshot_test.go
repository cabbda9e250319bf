package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ferret/internal/object"
	"ferret/internal/vector"
)

// The publication protocol's contract (segment.go): a query runs on the view
// it loaded and takes no lock, a writer never waits for a query, and nothing
// reachable from a published view is written again.

// within fails the test unless fn returns inside five seconds: the two
// blocking tests below deadlock on an engine whose queries hold a lock.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return: it is waiting for a lock the other side holds", what)
	}
}

// TestWritersDoNotWaitForReaders parks a query in the middle of its rank
// stage and runs an ingest, a delete and a merge beside it. All three return
// while the query is parked; released, the query answers from the view it
// started on, and the next query sees both writes.
func TestWritersDoNotWaitForReaders(t *testing.T) {
	const d = 6
	cfg := testConfig(t.TempDir(), d)
	cfg.Segments = SegmentParams{SealEntries: 3, Interval: -1}
	cfg.HIndex = HIndexParams{Enable: true}
	var park atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	cfg.ObjectDistance = func(a, b object.Object) float64 {
		if park.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
		return vector.L1(a.Segments[0].Vec, b.Segments[0].Vec)
	}
	e := openEngine(t, cfg)
	ids := ingestClusters(t, e, 3, 4, d, 1) // four sealed segments, an empty tail
	victim := ids[1][2]

	ctx := context.Background()
	twin := clusterObject("twin", 1, d, 1, 0.01, rand.New(rand.NewSource(7)))
	opt := QueryOptions{K: 20}
	before, err := e.Search(ctx, twin, opt)
	if err != nil {
		t.Fatal(err)
	}

	park.Store(true)
	var during Answer
	var duringErr error
	searched := make(chan struct{})
	go func() {
		defer close(searched)
		during, duringErr = e.Search(ctx, twin, opt)
	}()
	<-parked

	var twinID object.ID
	within(t, "Ingest beside a parked query", func() {
		if twinID, err = e.Ingest(twin, nil); err != nil {
			t.Error(err)
		}
	})
	within(t, "Delete beside a parked query", func() {
		if err := e.Delete(victim); err != nil {
			t.Error(err)
		}
	})
	within(t, "compactOnce beside a parked query", func() {
		if !e.compactOnce() {
			t.Error("compactOnce found nothing to merge")
		}
	})

	close(release)
	<-searched
	if duringErr != nil {
		t.Fatal(duringErr)
	}
	sameAnswers(t, "parked query vs pre-write answer", during.Results, before.Results)
	hasID := func(rs []Result, id object.ID) bool {
		return slices.ContainsFunc(rs, func(r Result) bool { return r.ID == id })
	}
	if !hasID(during.Results, victim) || hasID(during.Results, twinID) {
		t.Fatalf("parked query saw a write published after it began: %+v", during.Results)
	}

	after, err := e.Search(ctx, twin, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Results) == 0 || after.Results[0].ID != twinID || after.Results[0].Distance != 0 {
		t.Fatalf("next query does not lead with the ingested twin at distance 0: %+v", after.Results)
	}
	if hasID(after.Results, victim) {
		t.Fatalf("next query still returns the deleted object: %+v", after.Results)
	}
	if err := e.checkNow(); err != nil {
		t.Fatal(err)
	}
}

// TestReadersDoNotWaitForWriters holds the writer mutex and searches.
func TestReadersDoNotWaitForWriters(t *testing.T) {
	const d = 6
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 3, 4, d, 2)
	q := clusterObject("q", 1, d, 2, 0.01, rand.New(rand.NewSource(8)))

	e.mu.Lock()
	defer e.mu.Unlock()
	within(t, "Search under a held writer mutex", func() {
		if ans, err := e.Search(context.Background(), q, QueryOptions{K: 5}); err != nil || len(ans.Results) != 5 {
			t.Errorf("Search: %d results, err %v", len(ans.Results), err)
		}
	})
	within(t, "SearchByID under a held writer mutex", func() {
		ans, err := e.SearchByID(context.Background(), ids[2][0], QueryOptions{K: 5})
		if err != nil || len(ans.Results) != 5 || ans.Results[0].ID != ids[2][0] {
			t.Errorf("SearchByID: %+v, err %v", ans.Results, err)
		}
	})
}

// TestSnapshotStress runs four readers beside every writer at once — two
// ingest+delete feeds (one through Ingest, one through IngestQueued's
// admission), the background compactor's step+checkpoint and full Compact —
// on an engine that seals every two entries, and checks every answer
// against what was acknowledged before its query began: K results in
// ascending order, none of them an object whose delete had been
// acknowledged, and the queried object — acknowledged, never deleted —
// first at distance 0. Under -race this is the protocol's data-race check.
//
// It also pins the writer lock order at run time. Together the writers take
// every edge of it: compactMu < ingestMu < mu (Compact), compactMu < the
// store's walMu (the post-merge checkpoint), ingestMu < the metadata
// store's mu < the store's locks (Ingest's commit), and mu alone (Delete).
// A writer that takes two of them in the other order deadlocks against
// another; the watchdog then fails the test with every goroutine's stack
// instead of letting it hang.
func TestSnapshotStress(t *testing.T) {
	const d, k = 8, 5
	cfg := testConfig(t.TempDir(), d)
	cfg.Segments = SegmentParams{SealEntries: 2, Interval: -1}
	cfg.HIndex = HIndexParams{Enable: true}
	cfg.Ingest = IngestParams{Depth: 4, Workers: 2}
	// Inside the index radius, so descents cover a query outright; cluster
	// mates sit a handful of bits apart.
	cfg.Filter.MaxHammingFrac = 0.05
	// Not openEngine: a deadlocked writer may hold a lock Close needs, so
	// the engine is closed only once every writer has returned.
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex // guards keepers and gone
	var keepers []object.Object
	gone := map[object.ID]bool{}
	ingest := func(add func(object.Object) (object.ID, error), key string, i int, rng *rand.Rand) object.Object {
		o := clusterObject(key, i%6, d, 1+i%3, 0.02, rng)
		id, err := add(o)
		if err != nil {
			t.Error(err)
		}
		o.ID = id
		return o
	}
	plain := func(o object.Object) (object.ID, error) { return e.Ingest(o, nil) }
	queued := func(o object.Object) (object.ID, error) { return e.IngestQueued(context.Background(), o, nil) }
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		keepers = append(keepers, ingest(plain, fmt.Sprintf("s%05d", i), i, rng))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	run := func(step func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					step()
				}
			}
		}()
	}
	// A feed: two of three objects are deleted again a little later.
	feed := func(add func(object.Object) (object.ID, error), prefix string, first int, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var victims []object.Object
		i := first
		run(func() {
			o := ingest(add, fmt.Sprintf("%s%05d", prefix, i), i, rng)
			keep := i%3 == 0
			i++
			if keep {
				mu.Lock()
				keepers = append(keepers, o)
				mu.Unlock()
				return
			}
			if victims = append(victims, o); len(victims) > 6 {
				if err := e.Delete(victims[0].ID); err != nil {
					t.Error(err)
				}
				mu.Lock()
				gone[victims[0].ID] = true
				mu.Unlock()
				victims = victims[1:]
			}
		})
	}
	feed(plain, "s", 40, 41)
	feed(queued, "q", 0, 42)
	run(func() { e.compactOnce() })
	// Paced, or the full compaction would hold compactMu nearly always and
	// starve the background step.
	run(func() { e.Compact(); time.Sleep(5 * time.Millisecond) })
	var queries atomic.Int64
	for r := 0; r < 4; r++ {
		rrng := rand.New(rand.NewSource(int64(32 + r)))
		failed := false
		run(func() {
			if failed {
				return
			}
			mu.Lock()
			q := keepers[rrng.Intn(len(keepers))]
			goneBefore := make(map[object.ID]bool, len(gone))
			for id := range gone {
				goneBefore[id] = true
			}
			mu.Unlock()
			ans, err := e.Search(context.Background(), q, QueryOptions{K: k})
			if err != nil {
				t.Error(err)
				failed = true
				return
			}
			rs := ans.Results
			if len(rs) != k || rs[0].ID != q.ID || rs[0].Distance != 0 {
				t.Errorf("query for %s (id %d): %d results led by %+v, want %d led by it at distance 0", q.Key, q.ID, len(rs), rs[:min(1, len(rs))], k)
				failed = true
				return
			}
			for i, res := range rs {
				if goneBefore[res.ID] || (i > 0 && res.Distance < rs[i-1].Distance) {
					t.Errorf("query for %s: result %d %+v is deleted or out of order in %+v", q.Key, i, res, rs)
					failed = true
					return
				}
			}
			queries.Add(1)
		})
	}
	time.Sleep(400 * time.Millisecond)
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("writers still blocked 10 s after stop: a lock-order inversion deadlocked them\n%s", buf[:runtime.Stack(buf, true)])
	}
	defer e.Close()

	if err := e.checkNow(); err != nil {
		t.Fatal(err)
	}
	reg := e.Telemetry()
	for _, name := range []string{"ferret_seal_total", "ferret_merge_total", "ferret_compact_total", "ferret_delete_total", "ferret_hindex_probes_total"} {
		if reg.Value(name) == 0 {
			t.Errorf("%s is 0: the run no longer reaches every arm", name)
		}
	}
	if queries.Load() == 0 {
		t.Errorf("no query completed")
	}
}

// frozen is a deep copy of everything a query can read from a view.
type frozen struct {
	entries []sketchEntry
	recs    [][]byte  // the entries' record bytes, cloned
	segs    []segment // arena slices, tombstones cloned
	probes  [][]int32 // each indexed segment's candidates for its own first row
}

func freeze(v *view) frozen {
	f := frozen{entries: slices.Clone(v.entries)}
	for _, ent := range v.entries {
		f.recs = append(f.recs, slices.Clone(ent.rec))
	}
	for _, sp := range v.segs {
		s := *sp
		s.arena.words, s.arena.start = slices.Clone(s.arena.words), slices.Clone(s.arena.start)
		s.arena.entry, s.arena.weight = slices.Clone(s.arena.entry), slices.Clone(s.arena.weight)
		s.dead = slices.Clone(s.dead)
		f.segs = append(f.segs, s)
		if s.hindex != nil {
			f.probes = append(f.probes, s.hindex.AppendCandidates(nil, s.arena.words[:s.arena.wps], make([]uint64, (s.arena.rows()+63)/64)))
		}
	}
	return f
}

// TestPublishedViewIsNeverWritten holds on to a view, drives the engine
// through every kind of write, and compares the view with the deep copy
// taken when it was current: appends may reuse its backing arrays past its
// lengths, but nothing it can reach may change.
func TestPublishedViewIsNeverWritten(t *testing.T) {
	const d = 8
	cfg := testConfig(t.TempDir(), d)
	cfg.Segments = SegmentParams{SealEntries: 6, Interval: -1}
	cfg.HIndex = HIndexParams{Enable: true}
	e := openEngine(t, cfg)
	objs := ingestVaried(t, e, 21, d) // three sealed segments and a three-entry tail
	if err := e.Delete(objs[2].ID); err != nil {
		t.Fatal(err)
	}

	held := e.cur.Load()
	want := freeze(held)
	publishes := e.Telemetry().Value("ferret_view_publish_total")

	ingestVariedKeys(t, e, "later", 5, d)   // appends to the held tail's arrays, then seals them
	for _, i := range []int{1, 8, 19, 20} { // tombstones in sealed segments and in the old tail
		if err := e.Delete(objs[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	if !e.compactOnce() {
		t.Fatal("compactOnce found nothing to merge")
	}
	ingestVariedKeys(t, e, "last", 3, d)
	e.Compact()

	if got := freeze(held); !slices.EqualFunc(got.entries, want.entries, func(a, b sketchEntry) bool {
		return a.id == b.id && a.key == b.key && unsafe.SliceData(a.rec) == unsafe.SliceData(b.rec) && len(a.rec) == len(b.rec)
	}) || !slices.EqualFunc(got.recs, want.recs, bytes.Equal) ||
		!slices.EqualFunc(got.probes, want.probes, slices.Equal[[]int32]) ||
		!slices.EqualFunc(got.segs, want.segs, func(a, b segment) bool {
			return a.loEntry == b.loEntry && a.n == b.n && a.deleted == b.deleted && a.hindex == b.hindex &&
				slices.Equal(a.dead, b.dead) && slices.Equal(a.arena.words, b.arena.words) &&
				slices.Equal(a.arena.start, b.arena.start) && slices.Equal(a.arena.entry, b.arena.entry) &&
				slices.Equal(a.arena.weight, b.arena.weight)
		}) {
		t.Fatal("a view changed after it was published")
	}
	if err := e.checkSegInvariants(held); err == nil {
		t.Fatal("the held view passes against the current tombstone gauge: the writes above changed nothing")
	}

	// 8 ingests, 4 deletes, a merge and a compaction: one view and one
	// observed writer-mutex acquisition each.
	reg := e.Telemetry()
	if got := reg.Value("ferret_view_publish_total") - publishes; got != 14 {
		t.Fatalf("%g views published by 14 writes", got)
	}
	if got, want := reg.Value("ferret_write_wait_seconds_count"), reg.Value("ferret_view_publish_total"); got != want {
		t.Fatalf("ferret_write_wait_seconds observed %g acquisitions, ferret_view_publish_total counts %g", got, want)
	}
	if got := e.cur.Load().id - held.id; got != 14 {
		t.Fatalf("view id advanced by %d over 14 writes", got)
	}
}
