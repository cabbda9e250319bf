package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"time"

	"ferret/internal/core"
	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/protocol"
	"ferret/internal/server"
	"ferret/internal/sketch"
	"ferret/internal/synth"
)

// scale holds every size and duration a run depends on. fullScale is what
// BENCHMARK.json runs; the smoke test shrinks it.
type scale struct {
	imageObjects  int
	shapeObjects  int
	queries       [2]int // distinct queries the reader cycles through, [shape, image]: unseen objects (in-process) or keys (wire)
	recallQueries [2]int // [shape, image]
	counted       [2]int // single-goroutine counted-pass queries, [shape, image]
	setups        [2]int // set-ups per untraced run, [shape, image]
	warmup        time.Duration
	window        time.Duration
	idleFeed      time.Duration // write feed on the idle engine of every fixture but the last, read-only workloads
	layerBudget   time.Duration // time box of one layer microbenchmark
	dir           string        // parent of every temp dir the run creates
}

const (
	resultK   = 20
	hotKeys   = 16
	writeRate = 300.0 // open-loop writer, ops/s: 9 ingests then 1 delete
	// syncInterval is the store flush policy of every workload:
	// kvstore.SyncPeriodic with this period.
	syncInterval = time.Second
	probeSeed    = 424242
	querySeed    = 515151
	feedSeed     = 616161
	// ingestParts is how many pieces the bulk load of a set-up is timed in.
	ingestParts = 40
)

func fullScale(window time.Duration, dir string) scale {
	return scale{
		imageObjects: 20000,
		shapeObjects: 40000,
		// Few enough that the window runs every distinct query some twenty
		// times or more (an image query takes ~20 ms, a shape query ~0.4 ms):
		// the timing metrics are built from each query's fastest execution.
		queries:       [2]int{512, 32},
		recallQueries: [2]int{100, 16},
		counted:       [2]int{512, 64},
		// The image set-up is half as long as the shape one, so there is time
		// for more of them.
		setups:      [2]int{6, 8},
		warmup:      2 * time.Second,
		window:      window,
		idleFeed:    400 * time.Millisecond,
		layerBudget: 150 * time.Millisecond,
		dir:         dir,
	}
}

func (sc scale) pick(image bool, v [2]int) int {
	if image {
		return v[1]
	}
	return v[0]
}

// inputs are everything a run derives from the seed, made once and shared by
// the repeated set-ups: the program only ever sees these generated objects.
type inputs struct {
	spec    workloadSpec
	objs    []object.Object // corpus
	queries []object.Object // never-ingested query objects; like probes, the same on every seed
	probes  []object.Object // recall queries: the same on every seed, so recall moves with the corpus and the program only
	keys    []string        // by-key query order: a seeded permutation, or the hot keys
	stream  []object.Object // fresh objects for the writer; the same on every seed except on shape_rw
	cfg     core.Config     // Dir is filled per set-up
}

func rekey(objs []object.Object, prefix string) {
	for i := range objs {
		objs[i].Key = prefix + objs[i].Key
	}
}

func uniform(dim int, v float32) []float32 {
	out := make([]float32, dim)
	for i := range out {
		out[i] = v
	}
	return out
}

func makeInputs(spec workloadSpec, seed int64, sc scale) *inputs {
	in := &inputs{spec: spec}
	// shape_rw streams through warm-up and the window; the others cycle
	// through the first idleObjects, and the traced run's write layer takes a
	// few hundred.
	// The idle feed's objects are timed one by one at their fastest, like the
	// queries, so like the queries they are the same on every seed.
	nstream, streamSeed := 512, int64(feedSeed)
	if spec.rw {
		nstream += int(writeRate * (sc.warmup.Seconds() + sc.window.Seconds() + 3))
		streamSeed = 3*seed + 2
	}

	cfg := core.Config{
		HIndex: core.HIndexParams{Enable: true},
		Store:  kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: syncInterval},
	}
	if spec.image {
		in.objs = synth.MixedImageObjects(sc.imageObjects, 3*seed)
		in.queries = synth.MixedImageObjects(sc.queries[1], querySeed)
		in.stream = synth.MixedImageObjects(nstream, streamSeed)
		in.probes = synth.MixedImageObjects(sc.recallQueries[1], probeSeed)
		cfg.Sketch = sketch.Params{N: 96, K: 1, Min: uniform(14, 0), Max: uniform(14, 1), Seed: 201}
		cfg.RankThreshold = 2.0
		// Five storage segments at full scale, and no background compactor, so
		// the segment set is the same on every run of a seed.
		cfg.Segments = core.SegmentParams{SealEntries: sc.imageObjects*4096/20000 + 1, Interval: -1}
	} else {
		in.objs = synth.MixedShapeObjects(sc.shapeObjects, 3*seed)
		in.queries = synth.MixedShapeObjects(sc.queries[0], querySeed)
		in.stream = synth.MixedShapeObjects(nstream, streamSeed)
		in.probes = synth.MixedShapeObjects(sc.recallQueries[0], probeSeed)
		cfg.Sketch = sketch.Params{N: 800, K: 1, Min: uniform(544, 0), Max: uniform(544, 2), Seed: 203}
	}
	rekey(in.queries, "q-")
	rekey(in.probes, "probe-")
	rekey(in.stream, "live-")
	if spec.rw {
		// An eighth of what the feed delivers per window, so every window
		// holds several seals and at least one four-segment merge.
		seal := int(0.9 * writeRate * sc.window.Seconds() / 8)
		if seal < 16 {
			seal = 16
		}
		cfg.Segments = core.SegmentParams{SealEntries: seal, Interval: 250 * time.Millisecond}
		cfg.Ingest = core.IngestParams{Depth: 256, Workers: 1}
	}
	cfg.ResultCache = core.ResultCacheParams{Enable: spec.cache}
	in.cfg = cfg

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(len(in.objs))
	n := sc.queries[0]
	if spec.hot {
		n = hotKeys
	}
	if n > len(perm) {
		n = len(perm)
	}
	in.keys = make([]string, n)
	for i := range in.keys {
		in.keys[i] = in.objs[perm[i]].Key
	}
	return in
}

// fixture is one set-up of the program under test: an engine on a fresh
// store, and for the wire workloads a server on a loopback listener with the
// load connections already upgraded to protocol v2.
type fixture struct {
	in     *inputs
	dir    string
	eng    *core.Engine
	srv    *server.Server
	addr   string
	served chan struct{}
	client *protocol.Client // the load connection, upgraded to v2
	ctl    *protocol.Client // text-protocol control connection (TELEMETRY, traced text queries)

	// parts are the set-up's timed pieces in seconds: open, ingestParts pieces
	// of the bulk load, compaction, listener and dials. Their sum is the
	// set-up time.
	parts      []float64
	ingestObjS float64
}

// setUp times what the program does between an empty directory and being
// ready to serve: open, single-writer bulk ingest, full compaction (the
// image corpus keeps its sealed segments instead), listener and dials.
// Input generation is the benchmark's own work and is not part of it.
func setUp(in *inputs, sc scale) (fx *fixture, err error) {
	if err := os.MkdirAll(sc.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(sc.dir, "ferret-bench-*")
	if err != nil {
		return nil, err
	}
	fx = &fixture{in: in, dir: dir}
	defer func() {
		if err != nil {
			fx.tearDown()
			fx = nil
		}
	}()

	last := time.Now()
	part := func() {
		now := time.Now()
		fx.parts = append(fx.parts, now.Sub(last).Seconds())
		last = now
	}
	cfg := in.cfg
	cfg.Dir = dir
	if fx.eng, err = core.Open(cfg); err != nil {
		return fx, err
	}
	part()
	ingestStart := last
	for p := 0; p < ingestParts; p++ {
		for i := p * len(in.objs) / ingestParts; i < (p+1)*len(in.objs)/ingestParts; i++ {
			if _, err = fx.eng.Ingest(in.objs[i], nil); err != nil {
				return fx, fmt.Errorf("bulk ingest %s: %w", in.objs[i].Key, err)
			}
		}
		part()
	}
	fx.ingestObjS = float64(len(in.objs)) / last.Sub(ingestStart).Seconds()
	if !in.spec.image {
		fx.eng.Compact()
	}
	part()
	if in.spec.wire {
		if err = fx.serve(); err != nil {
			return fx, err
		}
	}
	part()
	return fx, nil
}

func (fx *fixture) serve() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fx.addr = l.Addr().String()
	fx.srv = &server.Server{Engine: fx.eng, DefaultK: resultK}
	fx.served = make(chan struct{})
	go func() {
		defer close(fx.served)
		// Serve returns net.ErrClosed after tearDown's Close; nothing to report.
		_ = fx.srv.Serve(context.Background(), l)
	}()
	if fx.client, err = protocol.Dial(fx.addr); err != nil {
		return err
	}
	if err := fx.client.UpgradeV2(); err != nil {
		return fmt.Errorf("v2 upgrade: %w", err)
	}
	fx.ctl, err = protocol.Dial(fx.addr)
	return err
}

// tearDown releases everything setUp acquired: connections, listener, serve
// goroutine, engine (and its background goroutines) and the temp dir.
func (fx *fixture) tearDown() error {
	var errs []error
	if fx.client != nil {
		errs = append(errs, fx.client.Close())
	}
	if fx.ctl != nil {
		errs = append(errs, fx.ctl.Close())
	}
	if fx.srv != nil {
		errs = append(errs, fx.srv.Close())
		<-fx.served
	}
	if fx.eng != nil {
		errs = append(errs, fx.eng.Close())
	}
	errs = append(errs, os.RemoveAll(fx.dir))
	return errors.Join(errs...)
}

// heapMB is the live heap after two forced collections (the second empties
// the sync.Pool victim caches). HeapAlloc, not HeapInuse: span fragmentation
// left by the bulk load moved HeapInuse by 5% between identical runs, live
// bytes by 0.1%.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// counters snapshots the engine registry's flat series.
func counters(e *core.Engine) map[string]float64 {
	out := map[string]float64{}
	e.Telemetry().Each(func(name string, v float64) { out[name] = v })
	return out
}
