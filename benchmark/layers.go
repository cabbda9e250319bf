package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"ferret/internal/core"
	"ferret/internal/emd"
	"ferret/internal/hindex"
	"ferret/internal/kvstore"
	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/protocol"
	"ferret/internal/sketch"
	"ferret/internal/vector"
)

// Per-layer measurements taken from outside: each function times calls into
// one package's public functions on data drawn from the run's corpus, with no
// load running. They say what a layer costs in isolation; README.md records
// which end-to-end metric each is predicted to move.

// unused keeps the compiler from discarding measured calls.
var unused float64

func us(ns float64) float64 { return ns / 1e3 }

// leafLayers covers sketch, hindex, vector and emd.
func leafLayers(in *inputs, sc scale, b *sketch.Builder, m map[string]float64) {
	// Every corpus segment vector, and the packed sketch rows of up to 64k
	// of them, laid out as the engine's arena lays them out.
	var vecs [][]float32
	for i := range in.objs {
		for _, seg := range in.objs[i].Segments {
			vecs = append(vecs, seg.Vec)
		}
	}
	m["sketch.build_us"] = us(perOp(sc.layerBudget, 64, func(i int) { unused += float64(b.Build(vecs[i%len(vecs)])[0] & 1) }))

	rows := min(len(vecs), 1<<16)
	wps := sketch.Words(b.N())
	arena := make([]uint64, 0, rows*wps)
	for _, v := range vecs[:rows] {
		arena = append(arena, b.Build(v)...)
	}
	var qsk []sketch.Sketch
	for i := 0; i < len(in.queries) && len(qsk) < 256; i++ {
		for _, seg := range in.queries[i].Segments {
			qsk = append(qsk, b.Build(seg.Vec))
		}
	}
	idx, dist := make([]int32, rows), make([]int32, rows)
	bound := int32(b.N() / 8)
	m["sketch.scan_ns_per_row"] = perOp(sc.layerBudget, 4, func(i int) {
		unused += float64(sketch.HammingSelect(qsk[i%len(qsk)], arena, 0, rows, bound, idx, dist))
	}) / float64(rows)

	ix := hindex.New(b.N(), wps, 0)
	t0 := time.Now()
	for r := 0; r < rows; r++ {
		ix.Insert(int32(r), arena)
	}
	m["hindex.insert_us"] = us(float64(time.Since(t0).Nanoseconds()) / float64(rows))
	m["hindex.bytes_per_row"] = float64(ix.MemoryBytes()) / float64(ix.Rows())
	seen := make([]uint64, (rows+63)/64)
	var cands []int32
	found, probes := 0, 0
	m["hindex.probe_us"] = us(perOp(sc.layerBudget, 16, func(i int) {
		cands = ix.AppendCandidates(cands[:0], qsk[i%len(qsk)], seen)
		for _, r := range cands {
			seen[r>>6] &^= 1 << (uint(r) & 63)
		}
		found += len(cands)
		probes++
	}))
	m["hindex.candidate_frac"] = float64(found) / float64(probes) / float64(rows)

	rng := rand.New(rand.NewSource(7))
	randVecs := func(dim int) [][]float32 {
		out := make([][]float32, 64)
		for i := range out {
			out[i] = make([]float32, dim)
			for j := range out[i] {
				out[i][j] = rng.Float32()
			}
		}
		return out
	}
	for _, dim := range []int{14, 544} {
		v := randVecs(dim)
		m[fmt.Sprintf("vector.l1_ns_%dd", dim)] = perOp(sc.layerBudget, 256, func(i int) {
			unused += vector.L1(v[i%64], v[(i+17)%64])
		})
	}

	opt := emd.Options{Threshold: in.cfg.RankThreshold}
	pair := func(i int) (object.Object, object.Object) {
		return in.queries[i%len(in.queries)], in.objs[(i*7919)%len(in.objs)]
	}
	m["emd.distance_us"] = us(perOp(sc.layerBudget, 32, func(i int) {
		x, y := pair(i)
		d, _ := emd.Distance(x, y, opt) // inputs are valid corpus objects
		unused += d
	}))
	const calls = 512
	a0, _ := mallocs()
	for i := 0; i < calls; i++ {
		x, y := pair(i)
		d, _ := emd.Distance(x, y, opt)
		unused += d
	}
	a1, _ := mallocs()
	m["emd.allocs_per_call"] = float64(a1-a0) / calls
}

// storeLayers covers kvstore and metastore, each on a store of its own in a
// temp dir under sc.dir.
func storeLayers(in *inputs, sc scale, b *sketch.Builder, m map[string]float64) (err error) {
	dir, err := os.MkdirTemp(sc.dir, "ferret-bench-layers-*")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	objs := in.objs[:min(2000, len(in.objs))]
	n := float64(len(objs))

	// withKV runs fn on a fresh kvstore under the given sync policy.
	withKV := func(sub string, policy kvstore.SyncPolicy, fn func(kv *kvstore.Store) error) error {
		kv, err := kvstore.Open(kvstore.Options{Dir: filepath.Join(dir, sub), Sync: policy, SyncInterval: syncInterval})
		if err != nil {
			return err
		}
		return errors.Join(fn(kv), kv.Close())
	}
	// commitUS is the median time of one transaction shaped like an ingest:
	// the object record plus three small index rows.
	commitUS := func(kv *kvstore.Store, objs []object.Object) (float64, error) {
		var per []float64
		for i := range objs {
			rec, key := objs[i].Marshal(), []byte(objs[i].Key)
			t0 := time.Now()
			txn := kv.Begin()
			txn.Put("objects", key, rec)
			txn.Put("keys", key, key[:8])
			txn.Put("names", key[:8], key)
			txn.Put("config", []byte("nextid"), key[:8])
			if err := txn.Commit(); err != nil {
				return 0, err
			}
			per = append(per, float64(time.Since(t0).Nanoseconds()))
		}
		return us(median(per)), nil
	}
	err = withKV("kv-periodic", kvstore.SyncPeriodic, func(kv *kvstore.Store) (err error) {
		if m["kvstore.commit_us"], err = commitUS(kv, objs); err != nil {
			return err
		}
		m["kvstore.wal_bytes_per_object"] = float64(kv.Stat().WALBytes) / n
		t0 := time.Now()
		err = kv.Checkpoint()
		m["kvstore.checkpoint_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		return err
	})
	if err != nil {
		return fmt.Errorf("kvstore layer: %w", err)
	}
	err = withKV("kv-sync", kvstore.SyncEveryCommit, func(kv *kvstore.Store) (err error) {
		m["kvstore.commit_sync_us"], err = commitUS(kv, objs[:min(50, len(objs))])
		return err
	})
	if err != nil {
		return fmt.Errorf("kvstore per-commit-sync layer: %w", err)
	}

	msDir := filepath.Join(dir, "meta")
	ms, err := metastore.Open(msDir, kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: syncInterval})
	if err != nil {
		return err
	}
	err = errors.Join(metastoreOps(ms, objs, sc, b, m), ms.Close())
	if err != nil {
		return fmt.Errorf("metastore layer: %w", err)
	}
	var disk int64
	err = filepath.WalkDir(msDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	m["metastore.disk_bytes_per_object"] = float64(disk) / n
	return err
}

// metastoreOps times AddObject, GetObject and LookupKeyBytes on an open
// metadata store.
func metastoreOps(ms *metastore.Store, objs []object.Object, sc scale, b *sketch.Builder, m map[string]float64) error {
	ids := make([]object.ID, len(objs))
	keys := make([][]byte, len(objs))
	var per []float64
	for i, o := range objs {
		set := &metastore.SketchSet{Weights: make([]float32, len(o.Segments)), Sketches: make([]sketch.Sketch, len(o.Segments))}
		for s, seg := range o.Segments {
			set.Weights[s], set.Sketches[s] = seg.Weight, b.Build(seg.Vec)
		}
		t0 := time.Now()
		id, err := ms.AddObject(o, set, false, nil)
		if err != nil {
			return err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds()))
		ids[i], keys[i] = id, []byte(o.Key)
	}
	m["metastore.add_object_us"] = us(median(per))
	m["metastore.get_object_us"] = us(perOp(sc.layerBudget, 64, func(i int) {
		o, _ := ms.GetObject(ids[i%len(ids)])
		unused += float64(len(o.Segments))
	}))
	m["metastore.lookup_key_ns"] = perOp(sc.layerBudget, 256, func(i int) {
		id, _ := ms.LookupKeyBytes(keys[i%len(keys)])
		unused += float64(id)
	})
	return nil
}

// wireLayers covers protocol and server on an idle server: the v2 codec on
// a real 20-result answer, the ping floor, the unloaded query round trip
// against the same queries in-process, and the text protocol's parse span.
func wireLayers(ctx context.Context, fx *fixture, sc scale, searchUS float64, m map[string]float64) error {
	keys := fx.in.keys
	cl := fx.client

	var buf []byte
	m["protocol.encode_query_ns"] = perOp(sc.layerBudget, 256, func(i int) {
		buf = protocol.AppendQueryV2(buf[:0], keys[i%len(keys)], resultK, "", 0, 0)
		unused += float64(len(buf))
	})
	payload, err := rawAnswer(fx.addr, keys[0])
	if err != nil {
		return fmt.Errorf("raw v2 query: %w", err)
	}
	m["protocol.response_bytes"] = float64(len(payload) + 5) // u32 length + u8 status + payload
	var derr error
	m["protocol.decode_response_ns"] = perOp(sc.layerBudget, 64, func(int) {
		rs, _, err := protocol.DecodeResults(payload)
		if err != nil {
			derr = err
		}
		unused += float64(len(rs))
	})
	if derr != nil {
		return fmt.Errorf("decode captured answer: %w", derr)
	}

	var perr error
	m["server.ping_rtt_us"] = us(perOp(sc.layerBudget, 32, func(int) {
		if err := cl.Ping(); err != nil {
			perr = err
		}
	}))
	if perr != nil {
		return fmt.Errorf("ping: %w", perr)
	}
	n := sc.pick(false, sc.counted)
	var rtt []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := cl.Query(keys[i%len(keys)], protocol.QueryParams{K: resultK}); err != nil {
			return fmt.Errorf("unloaded wire query: %w", err)
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds()))
	}
	m["server.wire_overhead_us"] = us(median(rtt)) - searchUS

	var parse []float64
	for i := 0; i < 64; i++ {
		_, meta, err := fx.ctl.QueryMeta(keys[i%len(keys)], protocol.QueryParams{K: resultK, Trace: true})
		if err != nil {
			return fmt.Errorf("traced text query: %w", err)
		}
		for _, st := range meta.Stages {
			if st.Name == "parse" {
				parse = append(parse, float64(st.Dur))
			}
		}
	}
	m["server.parse_us"] = us(median(parse))
	return ctx.Err()
}

// rawAnswer fetches one v2 QUERY response payload exactly as the server
// encodes it, using only the protocol package's framing functions.
func rawAnswer(addr, key string) (payload []byte, err error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
	}()
	cl := protocol.NewClient(conn)
	if err := cl.UpgradeV2(); err != nil {
		return nil, err
	}
	if err := protocol.WriteFrame(conn, protocol.OpQuery, protocol.AppendQueryV2(nil, key, resultK, "", 0, 0)); err != nil {
		return nil, err
	}
	status, payload, _, err := protocol.ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		return nil, err
	}
	if status != protocol.StatusResults {
		return nil, fmt.Errorf("status 0x%02x", status)
	}
	return payload, nil
}

// writeLayers times the engine's write path with no reader running: fresh
// ingests, deletes of a tenth of them, and a full compaction over the result.
func writeLayers(fx *fixture, from int, m map[string]float64) error {
	stream := fx.in.stream[from:]
	n := 300
	if n > len(stream) {
		n = len(stream)
	}
	ids := make([]object.ID, 0, n)
	var ing, del []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id, err := fx.eng.Ingest(stream[i], nil)
		if err != nil {
			return fmt.Errorf("ingest layer: %w", err)
		}
		ing = append(ing, float64(time.Since(t0).Nanoseconds()))
		ids = append(ids, id)
	}
	for i := 0; i < n; i += 10 {
		t0 := time.Now()
		if err := fx.eng.Delete(ids[i]); err != nil {
			return fmt.Errorf("delete layer: %w", err)
		}
		del = append(del, float64(time.Since(t0).Nanoseconds()))
	}
	m["core.ingest_us"] = us(median(ing))
	m["core.delete_us"] = us(median(del))
	t0 := time.Now()
	fx.eng.Compact()
	m["core.compact_s"] = time.Since(t0).Seconds()
	return nil
}

// countedPass runs the workload's first n queries in-process on one
// goroutine with nothing else running, so the engine's own counters give
// per-query work that repeats exactly for a seed, and MemStats deltas give
// allocations per query.
func countedPass(ctx context.Context, fx *fixture, n int, m map[string]float64) error {
	in := fx.in
	ids := make([]object.ID, 0, n)
	if in.spec.wire {
		for i := 0; i < n; i++ {
			id, ok := fx.eng.Meta().LookupKey(in.keys[i%len(in.keys)])
			if !ok {
				return fmt.Errorf("counted pass: unknown key %s", in.keys[i%len(in.keys)])
			}
			ids = append(ids, id)
		}
	}
	opt := core.QueryOptions{K: resultK}
	c0 := counters(fx.eng)
	a0, b0 := mallocs()
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		if in.spec.wire {
			_, err = fx.eng.SearchByID(ctx, ids[i], opt)
		} else {
			_, err = fx.eng.Search(ctx, in.queries[i%len(in.queries)], opt)
		}
		if err != nil {
			return fmt.Errorf("counted pass: %w", err)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds()))
	}
	a1, b1 := mallocs()
	c1 := counters(fx.eng)
	d := func(name string) float64 { return c1[name] - c0[name] }
	q := float64(n)
	m["core.search_us"] = us(median(per))
	m["core.rows_scanned_per_query"] = d("ferret_filter_objects_scanned_total") / q
	m["core.candidates_per_query"] = d("ferret_filter_candidates_total") / q
	m["core.emd_evals_per_query"] = d("ferret_rank_distance_evals_total") / q
	if tot := d("ferret_rank_emd_pruned_total") + d("ferret_rank_distance_evals_total"); tot > 0 {
		m["core.emd_pruned_frac"] = d("ferret_rank_emd_pruned_total") / tot
	}
	if probes := d("ferret_hindex_probes_total"); probes > 0 {
		m["core.index_served_frac"] = 1 - d("ferret_hindex_fallback_total")/probes
	}
	m["core.allocs_per_query"] = float64(a1-a0) / q
	m["core.alloc_bytes_per_query"] = float64(b1-b0) / q
	return nil
}
