package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/sketch"
)

// Engine-level crash torture: the kvstore suite proves the store recovers
// to a committed prefix; this suite proves the whole mutation path — ingest
// commit, tail seal, background merge, merge→checkpoint — preserves that
// contract end to end. A deterministic ingest/delete workload (with
// compaction steps at fixed points) runs against a FaultFS; every
// write/sync/rename boundary is faulted in every mode, the plug is pulled,
// and the reopened engine must hold exactly the objects of some committed
// prefix in the [acked, attempted] window, with the segment invariants
// intact and queries serving.

// engTortureOp is one engine mutation: ingest a fresh key or delete an
// earlier one.
type engTortureOp struct {
	del bool
	key string
}

// makeEngineWorkload builds n operations: mostly ingests of unique keys,
// with deletes of earlier keys mixed in (hitting both live and
// already-deleted objects).
func makeEngineWorkload(rng *rand.Rand, n int) []engTortureOp {
	ops := make([]engTortureOp, n)
	var keys []string
	for i := range ops {
		if len(keys) > 4 && rng.Intn(4) == 0 {
			ops[i] = engTortureOp{del: true, key: keys[rng.Intn(len(keys))]}
			continue
		}
		key := fmt.Sprintf("o%03d", i)
		keys = append(keys, key)
		ops[i] = engTortureOp{key: key}
	}
	return ops
}

// engPrefixStates returns the live key set after each committed prefix.
func engPrefixStates(ops []engTortureOp) []map[string]bool {
	states := make([]map[string]bool, len(ops)+1)
	cur := map[string]bool{}
	copyState := func() map[string]bool {
		out := make(map[string]bool, len(cur))
		for k := range cur {
			out[k] = true
		}
		return out
	}
	states[0] = copyState()
	for i, op := range ops {
		if op.del {
			delete(cur, op.key)
		} else {
			cur[op.key] = true
		}
		states[i+1] = copyState()
	}
	return states
}

// tortureObject derives a small deterministic object from its key.
func tortureObject(key string) object.Object {
	const d = 4
	rng := rand.New(rand.NewSource(int64(len(key)) * 131))
	for _, c := range key {
		rng = rand.New(rand.NewSource(rng.Int63() ^ int64(c)))
	}
	nseg := 1 + rng.Intn(2)
	weights := make([]float32, nseg)
	vecs := make([][]float32, nseg)
	for s := range vecs {
		weights[s] = 1
		v := make([]float32, d)
		for i := range v {
			v[i] = rng.Float32()
		}
		vecs[s] = v
	}
	o, err := object.New(key, weights, vecs)
	if err != nil {
		panic(err)
	}
	return o
}

// engineTortureConfig is the segmented engine on a fault filesystem: tiny
// seal threshold so the workload crosses several seal boundaries, manual
// compaction schedule, Hamming index on (recovery rebuilds it), synchronous
// commits so every ack is a durability claim.
func engineTortureConfig(fs *kvstore.FaultFS) Config {
	const d = 4
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	return Config{
		Dir:      "db",
		Sketch:   sketch.Params{N: 64, K: 1, Min: min, Max: max, Seed: 17},
		Segments: SegmentParams{SealEntries: 2, Interval: -1},
		HIndex:   HIndexParams{Enable: true},
		Store: kvstore.Options{
			Sync: kvstore.SyncEveryCommit,
			// Small threshold so the workload crosses the checkpoint path
			// on top of the explicit merge checkpoints.
			CheckpointBytes: 2 << 10,
			FS:              fs,
		},
	}
}

// runEngineWorkload drives the workload, interleaving background merge
// steps and one full compaction at deterministic points (only between
// successful operations, so the schedule up to any armed boundary replays
// exactly). Injected errors do not stop the drive; a power cut does. merges
// counts the background steps that merged or rewrote a run.
func runEngineWorkload(fs *kvstore.FaultFS, ops []engTortureOp) (lastAcked, attempted, merges int) {
	e, err := Open(engineTortureConfig(fs))
	if err != nil {
		return 0, 0, 0
	}
	for i, op := range ops {
		attempted = i + 1
		if op.del {
			id, ok := e.Meta().LookupKey(op.key)
			if !ok {
				// The key's ingest never committed (or it is already
				// deleted): nothing to do, and no ack to claim.
				continue
			}
			err = e.Delete(id)
		} else {
			_, err = e.Ingest(tortureObject(op.key), nil)
		}
		if err == nil {
			lastAcked = i + 1
			if i%7 == 3 && e.compactOnce() {
				merges++
			}
			if i == 3*len(ops)/4 {
				e.Compact()
			}
			continue
		}
		if errors.Is(err, kvstore.ErrCrashed) {
			return lastAcked, attempted, merges
		}
	}
	_ = e.Close()
	return lastAcked, attempted, merges
}

func engineTortureSeeds(t *testing.T) []int64 {
	if env := os.Getenv("FERRET_TORTURE_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("FERRET_TORTURE_SEED=%q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 2}
}

// TestCrashTortureEngine: for every write boundary of the mutation pipeline
// × every fault mode, a committed object is never lost, a partially
// compacted state recovers to the committed prefix, and the recovered
// engine passes the segment invariants and serves queries.
func TestCrashTortureEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("engine crash torture is minutes-long under -short")
	}
	scenarios := 0
	for _, seed := range engineTortureSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		ops := makeEngineWorkload(rng, 36)
		states := engPrefixStates(ops)
		var allKeys []string
		for _, op := range ops {
			if !op.del {
				allKeys = append(allKeys, op.key)
			}
		}

		// Phase A: clean run to count the pipeline's write boundaries.
		clean := kvstore.NewFaultFS(seed)
		cleanAcked, _, merges := runEngineWorkload(clean, ops)
		if cleanAcked != len(ops) {
			t.Fatalf("seed %d: clean run acked %d/%d ops", seed, cleanAcked, len(ops))
		}
		if merges == 0 {
			t.Fatalf("seed %d: the workload ran no background merge", seed)
		}
		t.Logf("seed %d: %d background merges", seed, merges)
		points := clean.OpCount()
		if points == 0 {
			t.Fatalf("seed %d: no injection points counted", seed)
		}

		// Phase B: fault every boundary in every mode.
		for point := 0; point < points; point++ {
			for _, mode := range kvstore.TortureModes {
				scenarios++
				fail := func(format string, arg ...any) {
					t.Helper()
					t.Fatalf("seed %d op %d mode %v: %s (rerun with FERRET_TORTURE_SEED=%d)",
						seed, point, mode, fmt.Sprintf(format, arg...), seed)
				}
				fs := kvstore.NewFaultFS(seed)
				fs.Arm(point, mode)
				lastAcked, attempted, _ := runEngineWorkload(fs, ops)
				fs.CrashNow()
				fs.Reboot()

				e, err := Open(engineTortureConfig(fs))
				if err != nil {
					fail("recovery failed: %v", err)
				}
				got := map[string]bool{}
				for _, key := range allKeys {
					if _, ok := e.Meta().LookupKey(key); ok {
						got[key] = true
					}
				}
				inWindow := false
				for k := lastAcked; k <= attempted; k++ {
					if len(states[k]) != len(got) {
						continue
					}
					match := true
					for key := range got {
						if !states[k][key] {
							match = false
							break
						}
					}
					if match {
						inWindow = true
						break
					}
				}
				if !inWindow {
					fail("recovered %d objects match no committed prefix in [acked %d, attempted %d]",
						len(got), lastAcked, attempted)
				}
				if e.Count() != len(got) {
					fail("engine counts %d objects, store holds %d", e.Count(), len(got))
				}
				segErr := e.checkNow()
				if segErr != nil {
					fail("segment invariants after recovery: %v", segErr)
				}
				if _, err := e.Search(context.Background(), tortureObject("probe"), QueryOptions{K: 3}); err != nil {
					fail("query after recovery: %v", err)
				}
				if err := e.Close(); err != nil {
					fail("closing recovered engine: %v", err)
				}
			}
		}
	}
	if scenarios < 200 {
		t.Fatalf("only %d injection scenarios exercised, want >= 200", scenarios)
	}
	t.Logf("engine crash torture: %d injection scenarios, zero divergences", scenarios)
}

// TestFsyncPoisoningRejectsIngest: once the store poisons itself on a
// failed sync, the engine's whole write path surfaces it — Ingest and
// Delete reject with kvstore.ErrPoisoned, ferret_ingest_rejected_total
// counts the rejections, reads and queries stay available, and a reboot
// recovers every acknowledged object.
func TestFsyncPoisoningRejectsIngest(t *testing.T) {
	fs := kvstore.NewFaultFS(42)
	e, err := Open(engineTortureConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	idA, err := e.Ingest(tortureObject("a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(tortureObject("b"), nil); err != nil {
		t.Fatal(err)
	}

	// The next commit buffers a WAL write then syncs; fault the sync, after
	// which durability is unknowable and the store poisons itself.
	fs.Arm(fs.OpCount()+1, kvstore.FaultErr)
	if _, err := e.Ingest(tortureObject("c"), nil); !errors.Is(err, kvstore.ErrInjected) {
		t.Fatalf("faulted ingest error = %v, want injected sync failure", err)
	}
	if _, err := e.Ingest(tortureObject("d"), nil); !errors.Is(err, kvstore.ErrPoisoned) {
		t.Fatalf("ingest after poisoning = %v, want ErrPoisoned", err)
	}
	if err := e.Delete(idA); !errors.Is(err, kvstore.ErrPoisoned) {
		t.Fatalf("delete after poisoning = %v, want ErrPoisoned", err)
	}
	if got := int(e.Telemetry().Value("ferret_ingest_rejected_total")); got != 1 {
		t.Fatalf("ferret_ingest_rejected_total = %d, want 1 (the post-poison ingest)", got)
	}

	// Reads survive: both acknowledged objects still answer queries.
	if e.Count() != 2 {
		t.Fatalf("engine counts %d objects, want 2", e.Count())
	}
	res, err := runQuery(e, tortureObject("a"), QueryOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("query on poisoned engine returned %d results, want 2", len(res))
	}

	// Reboot: the acked objects recover, the poison does not.
	fs.CrashNow()
	fs.Reboot()
	e2, err := Open(engineTortureConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Count() != 2 {
		t.Fatalf("recovered engine counts %d objects, want 2", e2.Count())
	}
	for _, key := range []string{"a", "b"} {
		if _, ok := e2.Meta().LookupKey(key); !ok {
			t.Fatalf("acked object %q lost across reboot", key)
		}
	}
	segErr := e2.checkNow()
	if segErr != nil {
		t.Fatal(segErr)
	}
}
