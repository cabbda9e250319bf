package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"ferret/internal/core"
	"ferret/internal/emd"
	"ferret/internal/evaltool"
	"ferret/internal/kvstore"
	"ferret/internal/synth"
	"ferret/internal/vector"
)

// Ablations quantify the design choices DESIGN.md calls out: the XOR-fold
// factor K of sketch construction, the improved-EMD variants, the filter
// parameters (r, k), the relaxed durability mode of the metadata store,
// and the optional multi-table Hamming index.

// AblationRow is one measurement: a configuration label with quality
// and/or timing numbers (negative values mean "not applicable").
type AblationRow struct {
	Group        string
	Config       string
	AvgPrecision float64
	Seconds      float64
	// Fsyncs is the WAL fsync count of a durability row (0 elsewhere).
	Fsyncs int
}

// FprintAblations renders rows grouped by experiment.
func FprintAblations(w io.Writer, rows []AblationRow) {
	last := ""
	for _, r := range rows {
		if r.Group != last {
			fmt.Fprintf(w, "# %s\n", r.Group)
			last = r.Group
		}
		fmt.Fprintf(w, "  %-34s", r.Config)
		if r.AvgPrecision >= 0 {
			fmt.Fprintf(w, "  avg_prec=%.3f", r.AvgPrecision)
		}
		if r.Seconds >= 0 {
			fmt.Fprintf(w, "  time=%.5fs", r.Seconds)
		}
		if r.Fsyncs > 0 {
			fmt.Fprintf(w, "  fsyncs=%d", r.Fsyncs)
		}
		fmt.Fprintln(w)
	}
}

// AblationSketchK measures how the XOR-fold factor K (the dampening
// control of Algorithms 1–2) affects search quality at a fixed sketch
// size, on the VARY image benchmark.
func AblationSketchK(scale Scale) ([]AblationRow, error) {
	vary, err := synth.VARY(scale.VARY)
	if err != nil {
		return nil, err
	}
	dt := imageType()
	var rows []AblationRow
	for _, k := range []int{1, 2, 4} {
		params := dt.sketchCfg(dt.sketchBits)
		params.K = k
		e, cleanup, err := tempEngine(core.Config{Sketch: params, RankThreshold: dt.rankThresh})
		if err != nil {
			return nil, err
		}
		for i := range vary.Objects {
			if _, err := e.Ingest(vary.Objects[i], nil); err != nil {
				cleanup()
				return nil, err
			}
		}
		rep, err := quality(e, vary.Sets, core.BruteForceSketch)
		cleanup()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Group:        "sketch XOR-fold K (96-bit sketches, VARY)",
			Config:       fmt.Sprintf("K=%d", k),
			AvgPrecision: rep.AvgPrecision,
			Seconds:      -1,
		})
	}
	return rows, nil
}

// AblationEMD compares the object-distance variants of §4.2.2 on the VARY
// benchmark with exact feature vectors: plain EMD, thresholded ground
// distance, square-root weighting, and both.
func AblationEMD(scale Scale) ([]AblationRow, error) {
	vary, err := synth.VARY(scale.VARY)
	if err != nil {
		return nil, err
	}
	dt := imageType()
	variants := []struct {
		name string
		opt  emd.Options
	}{
		{"plain EMD", emd.Options{Ground: vector.L1}},
		{"thresholded EMD (t=2)", emd.Options{Ground: vector.L1, Threshold: 2}},
		{"sqrt-weighted EMD", emd.Options{Ground: vector.L1, SqrtWeights: true}},
		{"thresholded + sqrt-weighted", emd.Options{Ground: vector.L1, Threshold: 2, SqrtWeights: true}},
	}
	var rows []AblationRow
	for _, v := range variants {
		cfg := core.Config{
			Sketch:         dt.sketchCfg(dt.sketchBits),
			ObjectDistance: emd.ObjectDistance(v.opt),
		}
		e, cleanup, err := tempEngine(cfg)
		if err != nil {
			return nil, err
		}
		for i := range vary.Objects {
			if _, err := e.Ingest(vary.Objects[i], nil); err != nil {
				cleanup()
				return nil, err
			}
		}
		rep, err := quality(e, vary.Sets, core.BruteForceOriginal)
		cleanup()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Group:        "object distance variants (exact vectors, VARY)",
			Config:       v.name,
			AvgPrecision: rep.AvgPrecision,
			Seconds:      -1,
		})
	}
	return rows, nil
}

// AblationFilterParams sweeps the filtering unit's r (query segments) and
// k (candidates per segment) on the VARY benchmark, reporting quality and
// per-query time — the tuning surface §5 tells system builders to explore.
func AblationFilterParams(scale Scale) ([]AblationRow, error) {
	vary, err := synth.VARY(scale.VARY)
	if err != nil {
		return nil, err
	}
	dt := imageType()
	e, cleanup, err := buildEngine(dt, dt.sketchBits, vary.Objects, nil)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var rows []AblationRow
	for _, r := range []int{1, 2, 4, 8} {
		for _, k := range []int{10, 50, 200} {
			runner := &evaltool.Runner{Engine: e, Options: core.QueryOptions{
				Mode:   core.Filtering,
				Filter: core.FilterParams{QuerySegments: r, NearestPerSegment: k},
			}}
			rep, err := runner.Run(vary.Sets)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Group:        "filter parameters r × k (Filtering, VARY)",
				Config:       fmt.Sprintf("r=%d k=%d", r, k),
				AvgPrecision: rep.AvgPrecision,
				Seconds:      rep.AvgQueryTime.Seconds(),
			})
		}
	}
	return rows, nil
}

// AblationFilterPath compares the filtering unit's two paths from §4.1.1 —
// comparing sketches vs computing the segment distance function directly
// against all feature-vector metadata — on quality and per-query time.
func AblationFilterPath(scale Scale) ([]AblationRow, error) {
	vary, err := synth.VARY(scale.VARY)
	if err != nil {
		return nil, err
	}
	dt := imageType()
	e, cleanup, err := buildEngine(dt, dt.sketchBits, vary.Objects, nil)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var rows []AblationRow
	for _, mode := range []struct {
		name  string
		exact bool
	}{
		{"sketch comparison (Hamming)", false},
		{"exact segment distance", true},
	} {
		runner := &evaltool.Runner{Engine: e, Options: core.QueryOptions{
			Mode:   core.Filtering,
			Filter: core.FilterParams{QuerySegments: 4, NearestPerSegment: 50, ExactDistance: mode.exact},
		}}
		rep, err := runner.Run(vary.Sets)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Group:        "filter path (Filtering, VARY)",
			Config:       mode.name,
			AvgPrecision: rep.AvgPrecision,
			Seconds:      rep.AvgQueryTime.Seconds(),
		})
	}
	return rows, nil
}

// AblationDurability measures ingest under the two durability policies of
// §4.1.3, per-commit fsync vs periodic sync: its wall time, and the WAL
// fsyncs that are the mechanism behind the difference (counted through
// Close, whose final fsync every run pays).
func AblationDurability(scale Scale) ([]AblationRow, error) {
	objs := synth.MixedImageObjects(min(scale.MixedImageN, 2000), 404)
	dt := imageType()
	var rows []AblationRow
	for _, mode := range []struct {
		name string
		sync kvstore.SyncPolicy
	}{
		{"fsync every commit", kvstore.SyncEveryCommit},
		{"periodic sync (relaxed ACID)", kvstore.SyncPeriodic},
	} {
		dir, err := os.MkdirTemp("", "ferret-abl-*")
		if err != nil {
			return nil, err
		}
		cfg := core.Config{
			Dir:    dir,
			Store:  kvstore.Options{Sync: mode.sync, SyncInterval: time.Second},
			Sketch: dt.sketchCfg(dt.sketchBits),
		}
		e, err := core.Open(cfg)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		start := time.Now()
		for i := range objs {
			if _, err := e.Ingest(objs[i], nil); err != nil {
				e.Close()
				os.RemoveAll(dir)
				return nil, err
			}
		}
		elapsed := time.Since(start).Seconds()
		e.Close()
		os.RemoveAll(dir)
		rows = append(rows, AblationRow{
			Group:        fmt.Sprintf("metadata durability (ingest %d objects)", len(objs)),
			Config:       mode.name,
			AvgPrecision: -1,
			Seconds:      elapsed,
			Fsyncs:       int(e.Telemetry().Value("ferret_store_wal_fsyncs_total")),
		})
	}
	return rows, nil
}

// AblationIndex compares the filtering unit's full sketch scan against the
// multi-table Hamming index (the §8 "improved indexing" extension):
// quality and per-query time on the VARY benchmark plus per-query time on
// the Mixed image speed dataset.
func AblationIndex(scale Scale) ([]AblationRow, error) {
	vary, err := synth.VARY(scale.VARY)
	if err != nil {
		return nil, err
	}
	dt := imageType()
	var rows []AblationRow
	for _, mode := range []struct {
		name  string
		index core.HIndexParams
	}{
		{"full sketch scan", core.HIndexParams{}},
		{"multi-table Hamming index", core.HIndexParams{Enable: true}},
	} {
		cfg := core.Config{
			Sketch:        dt.sketchCfg(dt.sketchBits),
			RankThreshold: dt.rankThresh,
			HIndex:        mode.index,
		}
		e, cleanup, err := tempEngine(cfg)
		if err != nil {
			return nil, err
		}
		for i := range vary.Objects {
			if _, err := e.Ingest(vary.Objects[i], nil); err != nil {
				cleanup()
				return nil, err
			}
		}
		start := time.Now()
		rep, err := quality(e, vary.Sets, core.Filtering)
		if err != nil {
			cleanup()
			return nil, err
		}
		sec := time.Since(start).Seconds() / float64(max(rep.Queries, 1))
		cleanup()
		rows = append(rows, AblationRow{
			Group:        "filtering accelerator (VARY quality + time)",
			Config:       mode.name,
			AvgPrecision: rep.AvgPrecision,
			Seconds:      sec,
		})
	}

	// Speed-only comparison on the larger mixed dataset.
	objs := synth.MixedImageObjects(min(scale.MixedImageN, 10000), 405)
	queries := synth.MixedImageObjects(scale.SpeedQueries, 906)
	for _, mode := range []struct {
		name  string
		index core.HIndexParams
	}{
		{"full sketch scan", core.HIndexParams{}},
		{"multi-table Hamming index", core.HIndexParams{Enable: true}},
	} {
		cfg := core.Config{Sketch: dt.sketchCfg(dt.sketchBits), HIndex: mode.index}
		e, cleanup, err := tempEngine(cfg)
		if err != nil {
			return nil, err
		}
		for i := range objs {
			if _, err := e.Ingest(objs[i], nil); err != nil {
				cleanup()
				return nil, err
			}
		}
		sec, err := avgQuerySeconds(e, queries, core.Filtering, 20)
		cleanup()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Group:        fmt.Sprintf("filtering accelerator (Mixed image, %d objects)", len(objs)),
			Config:       mode.name,
			AvgPrecision: -1,
			Seconds:      sec,
		})
	}
	return rows, nil
}

// Ablations runs the full suite.
func Ablations(scale Scale) ([]AblationRow, error) {
	var all []AblationRow
	for _, f := range []func(Scale) ([]AblationRow, error){
		AblationSketchK, AblationEMD, AblationFilterParams, AblationFilterPath,
		AblationDurability, AblationIndex,
	} {
		rows, err := f(scale)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}
