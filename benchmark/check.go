package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"ferret/internal/core"
	"ferret/internal/protocol"
)

// The answer checker. Every answer of every workload passes through one of
// these; a non-empty return is a failed operation.

// rankedOK holds for any top-K answer: exactly k results, distances finite
// and ascending, and for a query by key the key itself first at distance 0.
func rankedOK(n, k int, key func(i int) string, dist func(i int) float64, self string) string {
	if n != k {
		return fmt.Sprintf("got %d results, want %d", n, k)
	}
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		d := dist(i)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Sprintf("result %d has distance %v", i, d)
		}
		if d < prev {
			return fmt.Sprintf("result %d distance %v below result %d's %v", i, d, i-1, prev)
		}
		prev = d
	}
	if self != "" && (key(0) != self || dist(0) > 0) {
		return fmt.Sprintf("query by key %q returned %q at %v first", self, key(0), dist(0))
	}
	return ""
}

func checkCore(rs []core.Result, k int, self string) string {
	return rankedOK(len(rs), k,
		func(i int) string { return rs[i].Key },
		func(i int) float64 { return rs[i].Distance }, self)
}

func checkWire(rs []protocol.Result, k int, self string) string {
	return rankedOK(len(rs), k,
		func(i int) string { return rs[i].Key },
		func(i int) float64 { return rs[i].Distance }, self)
}

// sameAnswer reports whether a wire answer equals an in-process answer bit
// for bit (v2 carries distances as raw float64 bits).
func sameAnswer(w []protocol.Result, c []core.Result) string {
	if len(w) != len(c) {
		return fmt.Sprintf("wire answer has %d results, in-process %d", len(w), len(c))
	}
	for i := range w {
		if w[i].Key != c[i].Key || math.Float64bits(w[i].Distance) != math.Float64bits(c[i].Distance) {
			return fmt.Sprintf("result %d: wire %q/%v, in-process %q/%v", i, w[i].Key, w[i].Distance, c[i].Key, c[i].Distance)
		}
	}
	return ""
}

// tally counts operations attempted and failed; the first few failure
// reasons are kept for the report.
type tally struct {
	attempted, failed int64
	reasons           []string
}

func (t *tally) note(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, reason)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// references takes the in-process answers the wire workloads are checked
// against, right after set-up: one per distinct key of the first `sample`
// query keys. On the cached workload these are computed through the pipeline
// (first sight of each key is a miss) and every later hot answer must equal
// them bit for bit.
func references(ctx context.Context, fx *fixture, sample int, t *tally) map[string][]core.Result {
	refs := map[string][]core.Result{}
	for _, key := range fx.in.keys {
		if len(refs) >= sample {
			break
		}
		if _, seen := refs[key]; seen {
			continue
		}
		id, ok := fx.eng.Meta().LookupKey(key)
		if !ok {
			t.note("reference: unknown key " + key)
			continue
		}
		ans, err := fx.eng.SearchByID(ctx, id, core.QueryOptions{K: resultK})
		switch {
		case err != nil:
			t.note("reference: " + err.Error())
		case ans.Cache == core.CacheHit:
			t.note("reference for " + key + " was served from the cache")
		default:
			t.note(checkCore(ans.Results, resultK, key))
			refs[key] = ans.Results
		}
	}
	return refs
}

// wireMatchesEngine asks for each reference key over the wire and requires
// the in-process answer.
func wireMatchesEngine(fx *fixture, refs map[string][]core.Result, t *tally) {
	for key, want := range refs {
		got, err := fx.client.Query(key, protocol.QueryParams{K: resultK})
		if err != nil {
			t.note("wire check: " + err.Error())
			continue
		}
		t.note(sameAnswer(got, want))
	}
}

// recallAt20 is the mean overlap of the Filtering top-20 with the
// BruteForceOriginal top-20 over the probe objects: the paper's quality side
// of the speed/quality trade, deterministic per seed.
func recallAt20(ctx context.Context, fx *fixture, t *tally) float64 {
	// Not a timing: every core helps get through the brute-force side.
	workers := runtime.NumCPU()
	n := len(fx.in.probes)
	overlap := make([]float64, n)
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				q := fx.in.probes[i]
				fast, err1 := fx.eng.Search(ctx, q, core.QueryOptions{K: resultK})
				exact, err2 := fx.eng.Search(ctx, q, core.QueryOptions{K: resultK, Mode: core.BruteForceOriginal})
				if err1 != nil || err2 != nil {
					tallies[w].note(fmt.Sprintf("recall query: %v %v", err1, err2))
					continue
				}
				tallies[w].note(checkCore(fast.Results, resultK, ""))
				tallies[w].note(checkCore(exact.Results, resultK, ""))
				truth := map[string]bool{}
				for _, r := range exact.Results {
					truth[r.Key] = true
				}
				for _, r := range fast.Results {
					if truth[r.Key] {
						overlap[i] += 1.0 / resultK
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, wt := range tallies {
		t.merge(wt)
	}
	return mean(overlap)
}
