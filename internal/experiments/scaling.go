package experiments

import (
	"context"
	"fmt"
	"io"

	"ferret/internal/core"
	"ferret/internal/object"
	"ferret/internal/synth"
)

// The scaling sweep measures the sub-linear filter claim: on the mixed-shape
// speed corpus, grow the dataset through scale.SweepFractions and at each
// size run the same queries against two engines over identical data — one
// with the plain arena scan, one with the multi-table Hamming index — and
// compare the filter stage directly. The index is an accelerator, not an
// approximation, so the sweep also asserts bit-identical results at every
// point; a row with identical=false is a correctness bug, not a tuning
// problem.

// ScalingPoint is one dataset size of the sweep: both arms' mean
// filter-stage time, the speedup, and the index's work profile at that
// size.
type ScalingPoint struct {
	N       int `json:"n"`       // objects ingested at this point
	Queries int `json:"queries"` // measured queries (repeats included)

	ScanFilterSec  float64 `json:"scan_filter_sec"`  // mean filter-stage seconds, scan arm
	IndexFilterSec float64 `json:"index_filter_sec"` // mean filter-stage seconds, index arm
	Speedup        float64 `json:"speedup"`          // scan / index filter time

	// CandidateFrac is rows verified per row the scan would have streamed
	// (ferret_hindex_candidates_total / ferret_hindex_baseline_rows_total
	// over the point's probes): the index's candidate-reduction ratio.
	CandidateFrac float64 `json:"candidate_frac"`
	// IndexServed is the fraction of query segments the index answered
	// (the rest fell back to the scan via the cost model or coverage).
	IndexServed float64 `json:"index_served_frac"`
	LoadFactor  float64 `json:"load_factor"` // index table occupancy after ingest

	Identical bool `json:"identical"` // both arms returned bit-identical answers
}

// scalingRepeats re-runs the query list per measurement point so the mean
// filter time sits on more than a handful of samples at small scales.
const scalingRepeats = 3

// Scaling runs the corpus-size sweep on the mixed-shape speed dataset.
func Scaling(scale Scale) ([]ScalingPoint, error) {
	dt := mixedShapeType()
	objs := synth.MixedShapeObjects(scale.MixedShapeN, 301)
	queries := synth.MixedShapeObjects(scale.SpeedQueries, 909)

	base := core.Config{Sketch: dt.sketchCfg(dt.sketchBits), RankThreshold: dt.rankThresh}
	scanCfg := base
	idxCfg := base
	idxCfg.HIndex = core.HIndexParams{Enable: true}

	scanE, scanCleanup, err := tempEngine(scanCfg)
	if err != nil {
		return nil, err
	}
	defer scanCleanup()
	idxE, idxCleanup, err := tempEngine(idxCfg)
	if err != nil {
		return nil, err
	}
	defer idxCleanup()

	var points []ScalingPoint
	ingested := 0
	for _, frac := range scale.SweepFractions {
		target := int(frac * float64(scale.MixedShapeN))
		for ; ingested < target && ingested < len(objs); ingested++ {
			if _, err := scanE.Ingest(objs[ingested], nil); err != nil {
				return nil, err
			}
			if _, err := idxE.Ingest(objs[ingested], nil); err != nil {
				return nil, err
			}
		}
		pt, err := measureScalingPoint(scanE, idxE, queries, ingested)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// filterStage reads the filter-stage histogram's running (sum, count) so a
// measurement can be expressed as a delta across its queries.
func filterStage(e *core.Engine) (sum, count float64) {
	reg := e.Telemetry()
	return reg.Value("ferret_query_stage_seconds_filter_sum"),
		reg.Value("ferret_query_stage_seconds_filter_count")
}

func measureScalingPoint(scanE, idxE *core.Engine, queries []object.Object, n int) (ScalingPoint, error) {
	opt := core.QueryOptions{Mode: core.Filtering, K: 20, Filter: speedFilter}
	idxReg := idxE.Telemetry()

	scanSum0, scanCnt0 := filterStage(scanE)
	idxSum0, idxCnt0 := filterStage(idxE)
	probes0 := idxReg.Value("ferret_hindex_probes_total")
	cands0 := idxReg.Value("ferret_hindex_candidates_total")
	fallback0 := idxReg.Value("ferret_hindex_fallback_total")
	baseline0 := idxReg.Value("ferret_hindex_baseline_rows_total")

	pt := ScalingPoint{N: n, Identical: true}
	for rep := 0; rep < scalingRepeats; rep++ {
		for _, q := range queries {
			scanAns, err := scanE.Search(context.TODO(), q, opt)
			if err != nil {
				return pt, err
			}
			idxAns, err := idxE.Search(context.TODO(), q, opt)
			if err != nil {
				return pt, err
			}
			scanRes, idxRes := scanAns.Results, idxAns.Results
			pt.Queries++
			if len(scanRes) != len(idxRes) {
				pt.Identical = false
				continue
			}
			for i := range scanRes {
				if scanRes[i].ID != idxRes[i].ID || scanRes[i].Distance != idxRes[i].Distance { //lint:ignore floatcmp the sweep asserts bit-identical answers, not approximate ones

					pt.Identical = false
					break
				}
			}
		}
	}

	scanSum, scanCnt := filterStage(scanE)
	idxSum, idxCnt := filterStage(idxE)
	if dc := scanCnt - scanCnt0; dc > 0 {
		pt.ScanFilterSec = (scanSum - scanSum0) / dc
	}
	if dc := idxCnt - idxCnt0; dc > 0 {
		pt.IndexFilterSec = (idxSum - idxSum0) / dc
	}
	if pt.IndexFilterSec > 0 {
		pt.Speedup = pt.ScanFilterSec / pt.IndexFilterSec
	}
	if db := idxReg.Value("ferret_hindex_baseline_rows_total") - baseline0; db > 0 {
		pt.CandidateFrac = (idxReg.Value("ferret_hindex_candidates_total") - cands0) / db
	}
	probes := idxReg.Value("ferret_hindex_probes_total") - probes0
	fallbacks := idxReg.Value("ferret_hindex_fallback_total") - fallback0
	if probes > 0 { // every descent counts a probe; the served ones did not fall back
		pt.IndexServed = 1 - fallbacks/probes
	}
	pt.LoadFactor = idxE.Stat().HIndexLoad
	return pt, nil
}

// FprintScaling renders the sweep as a table.
func FprintScaling(w io.Writer, points []ScalingPoint) {
	fmt.Fprintf(w, "%10s %8s %13s %13s %9s %10s %9s %7s %10s\n",
		"objects", "queries", "scan(ms)", "index(ms)", "speedup", "cand-frac", "ix-served", "load", "identical")
	for _, p := range points {
		fmt.Fprintf(w, "%10d %8d %13.3f %13.3f %8.2fx %10.4f %9.2f %7.2f %10v\n",
			p.N, p.Queries, p.ScanFilterSec*1e3, p.IndexFilterSec*1e3,
			p.Speedup, p.CandidateFrac, p.IndexServed, p.LoadFactor, p.Identical)
	}
}
