package ferret

import (
	"fmt"
	"os"

	"ferret/internal/audiofeat"
	"ferret/internal/genomic"
	"ferret/internal/imagefeat"
	"ferret/internal/kvstore"
	"ferret/internal/sensorfeat"
	"ferret/internal/shape"
	"ferret/internal/sketch"
	"ferret/internal/videofeat"
)

// Ready-made configurations for the paper's four data types (§5). Sketch
// sizes follow Table 1: 96 bits per image region vector, 600 bits per audio
// word vector, 800 bits per 3D shape descriptor.

// ImageConfig returns the region-based image search configuration
// (paper §5.1): 14-d region features (9 color moments + 5 bounding-box
// descriptors), √size segment weights (applied by the extractor), ℓ₁
// segment distance and thresholded EMD ranking.
func ImageConfig(dir string) Config {
	min, max := imagefeat.FeatureBounds()
	return Config{
		Dir:           dir,
		Sketch:        sketch.Params{N: 96, K: 1, Min: min, Max: max, Seed: 1},
		RankThreshold: 2.0, // cap region outlier distances before EMD
	}
}

// ImageExtractor reads .png / .ppm files through the image plug-in.
func ImageExtractor() Extractor {
	ex := &imagefeat.Extractor{}
	return ExtractorFunc(func(path string) (Object, error) {
		im, err := imagefeat.ReadFile(path)
		if err != nil {
			return Object{}, err
		}
		return ex.Extract(path, im)
	})
}

// AudioConfig returns the speech search configuration (paper §5.2): 192-d
// word features (6 MFCCs × 32 windows), length-proportional weights, ℓ₁
// segment distance with 600-bit sketches and EMD ranking (order-invariant
// across word order).
func AudioConfig(dir string) Config {
	min, max := audiofeat.DefaultFeatureBounds()
	return Config{
		Dir:    dir,
		Sketch: sketch.Params{N: 600, K: 1, Min: min, Max: max, Seed: 2},
	}
}

// AudioExtractor reads mono 16-bit PCM .wav files through the audio
// plug-in, treating each file as one utterance.
func AudioExtractor(sampleRate int) Extractor {
	ex := audiofeat.NewExtractor(audiofeat.Segmenter{SampleRate: sampleRate})
	return ExtractorFunc(func(path string) (Object, error) {
		samples, rate, err := audiofeat.ReadWAVFile(path)
		if err != nil {
			return Object{}, err
		}
		if sampleRate != 0 && rate != sampleRate {
			return Object{}, fmt.Errorf("ferret: %s has sample rate %d, system expects %d", path, rate, sampleRate)
		}
		return ex.Extract(path, samples)
	})
}

// IngestRecording splits a long speech recording into utterance-level data
// objects at pauses (paper §5.2's first segmentation step: ten or more
// low-energy 20 ms windows mark an utterance boundary) and ingests each
// utterance separately under "<path>#uNN". It returns the new IDs.
func (s *System) IngestRecording(path string, sampleRate int, a Attrs) ([]ID, error) {
	samples, rate, err := audiofeat.ReadWAVFile(path)
	if err != nil {
		return nil, err
	}
	if sampleRate != 0 && rate != sampleRate {
		return nil, fmt.Errorf("ferret: %s has sample rate %d, want %d", path, rate, sampleRate)
	}
	seg := audiofeat.Segmenter{SampleRate: rate}
	ex := audiofeat.NewExtractor(seg)
	spans := seg.Utterances(samples)
	if len(spans) == 0 {
		return nil, fmt.Errorf("ferret: no utterances detected in %s", path)
	}
	ids := make([]ID, 0, len(spans))
	for i, span := range spans {
		key := fmt.Sprintf("%s#u%02d", path, i)
		o, err := ex.Extract(key, samples[span.Start:span.End])
		if err != nil {
			continue // an unvoicable span is skipped, not fatal
		}
		attrs := Attrs{"recording": path, "utterance": fmt.Sprintf("%d", i)}
		for k, v := range a {
			attrs[k] = v
		}
		id, err := s.Ingest(o, attrs)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("ferret: no usable utterances in %s", path)
	}
	return ids, nil
}

// ShapeConfig returns the 3D shape search configuration (paper §5.3):
// single-segment 544-d spherical harmonic descriptors with ℓ₁ distance and
// 800-bit sketches.
func ShapeConfig(dir string) Config {
	min, max := shape.FeatureBounds()
	return Config{
		Dir:    dir,
		Sketch: sketch.Params{N: 800, K: 1, Min: min, Max: max, Seed: 3},
	}
}

// ShapeExtractor reads .off polygonal models through the shape plug-in.
func ShapeExtractor() Extractor {
	return ExtractorFunc(func(path string) (Object, error) {
		f, err := os.Open(path)
		if err != nil {
			return Object{}, err
		}
		defer f.Close()
		m, err := shape.ParseOFF(f)
		if err != nil {
			return Object{}, err
		}
		return shape.Extract(path, m)
	})
}

// GenomicConfig returns the gene-expression search configuration
// (paper §5.4) for profiles bounded per condition by [min, max]. distance
// selects the segment (= object) distance: "pearson", "spearman" or "l1".
// Sketches estimate the ℓ₁ structure; correlation distances are used in
// the (exact) ranking phase.
func GenomicConfig(dir string, min, max []float32, distance string) (Config, error) {
	dist, err := genomic.DistanceByName(distance)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Dir:             dir,
		Sketch:          sketch.Params{N: 256, K: 1, Min: min, Max: max, Seed: 4},
		SegmentDistance: dist,
	}, nil
}

// GenomicExtractor treats each file as a TSV microarray and is rarely what
// you want for ingest (a matrix holds many genes); use IngestMatrix
// instead. It extracts the first row, mainly to satisfy QUERYFILE.
func GenomicExtractor() Extractor {
	return ExtractorFunc(func(path string) (Object, error) {
		f, err := os.Open(path)
		if err != nil {
			return Object{}, err
		}
		defer f.Close()
		m, err := genomic.ParseTSV(f)
		if err != nil {
			return Object{}, err
		}
		if len(m.Genes) == 0 {
			return Object{}, fmt.Errorf("ferret: %s holds no genes", path)
		}
		return m.RowObject(0), nil
	})
}

// SensorConfig returns a sensor/time-series search configuration (the §8
// "other sensor data" extension): multivariate recordings segmented into
// overlapping windows of per-channel statistics, with activity-weighted
// segments and ℓ₁/EMD matching. lo and hi bound each channel's values.
func SensorConfig(dir string, lo, hi []float32) Config {
	min, max := sensorfeat.Bounds(lo, hi)
	return Config{
		Dir:    dir,
		Sketch: sketch.Params{N: 128, K: 1, Min: min, Max: max, Seed: 5},
	}
}

// SensorExtractor reads .csv multivariate recordings through the sensor
// plug-in. windowSamples/strideSamples of 0 use the defaults (64/32).
func SensorExtractor(windowSamples, strideSamples int) Extractor {
	ex := &sensorfeat.Extractor{Seg: sensorfeat.Segmenter{Window: windowSamples, Stride: strideSamples}}
	return ExtractorFunc(func(path string) (Object, error) {
		f, err := os.Open(path)
		if err != nil {
			return Object{}, err
		}
		defer f.Close()
		s, err := sensorfeat.ParseCSV(f)
		if err != nil {
			return Object{}, err
		}
		return ex.Extract(path, s)
	})
}

// VideoConfig returns a video search configuration (the §8 "video"
// extension): frame sequences segmented into shots, each a 12-d segment
// (color moments, motion energy, temporal variation, position) weighted by
// √length, matched with EMD so re-edited shot orders still rank close.
func VideoConfig(dir string) Config {
	min, max := videofeat.FeatureBounds()
	return Config{
		Dir:    dir,
		Sketch: sketch.Params{N: 96, K: 1, Min: min, Max: max, Seed: 6},
	}
}

// VideoExtractor reads videos stored as directories of numbered .png/.ppm
// frames through the video plug-in.
func VideoExtractor() Extractor {
	ex := &videofeat.Extractor{}
	return ExtractorFunc(func(path string) (Object, error) {
		return ex.Extract(path)
	})
}

// Matrix is a gene-expression microarray (rows = genes).
type Matrix = genomic.Matrix

// ParseMatrixTSV reads a microarray matrix in tab-separated form.
func ParseMatrixTSV(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return genomic.ParseTSV(f)
}

// IngestMatrix ingests every gene (row) of a microarray matrix.
func (s *System) IngestMatrix(m *Matrix, extraAttrs Attrs) (int, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	added := 0
	for i := range m.Genes {
		a := Attrs{"gene": m.Genes[i]}
		for k, v := range extraAttrs {
			a[k] = v
		}
		if _, err := s.Ingest(m.RowObject(i), a); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// ForType resolves a data type named on a command line (image, audio,
// shape, sensor or genomic) to its configuration over dir, its extractor
// and the file extensions acquisition picks up. sampleRate is the audio
// plug-in's; genomic parses the microarray at matrixPath, returns it for
// ingest, and ranks by the named correlation distance.
func ForType(dtype, dir string, sampleRate int, matrixPath, distance string) (Config, Extractor, []string, *Matrix, error) {
	switch dtype {
	case "image":
		return ImageConfig(dir), ImageExtractor(), []string{".png", ".ppm"}, nil, nil
	case "audio":
		return AudioConfig(dir), AudioExtractor(sampleRate), []string{".wav"}, nil, nil
	case "shape":
		return ShapeConfig(dir), ShapeExtractor(), []string{".off"}, nil, nil
	case "sensor", "sensors":
		lo := []float32{-3, -3, -3}
		hi := []float32{3, 3, 3}
		return SensorConfig(dir, lo, hi), SensorExtractor(0, 0), []string{".csv"}, nil, nil
	case "genomic":
		if matrixPath == "" {
			return Config{}, nil, nil, nil, fmt.Errorf("type=genomic requires -matrix")
		}
		m, err := ParseMatrixTSV(matrixPath)
		if err != nil {
			return Config{}, nil, nil, nil, err
		}
		min, max := m.Bounds()
		cfg, err := GenomicConfig(dir, min, max, distance)
		if err != nil {
			return Config{}, nil, nil, nil, err
		}
		return cfg, GenomicExtractor(), []string{".tsv"}, m, nil
	default:
		return Config{}, nil, nil, nil, fmt.Errorf("unknown data type %q", dtype)
	}
}

// RelaxedDurability switches a config to the paper's relaxed ACID mode
// (§4.1.3): commits flush to the OS immediately but fsync only
// periodically, trading a bounded window of potentially lost updates for
// much higher ingest throughput. The default is full per-commit
// durability.
func RelaxedDurability(cfg Config) Config {
	cfg.Store.Sync = kvstore.SyncPeriodic
	return cfg
}
