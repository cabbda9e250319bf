// Command ferret-ingest bulk-loads a directory of data files into a Ferret
// database through the selected plug-in, then exits — the one-shot variant
// of the server's acquisition loop, useful for building a database offline
// before starting ferretd. It can also run the performance evaluation tool
// against a benchmark file after ingest.
//
//	ferret-ingest -dir ./db -type image -data ./data
//	ferret-ingest -dir ./db -type image -data ./data -eval ./data/vary.bench -mode sketch
//
// With -daemon it becomes a sustained-rate ingest driver: it rescans the
// data directory every -scan-interval until SIGTERM/SIGINT, pacing ingests
// at -ingest-rate objects per second through the engine's ingest
// admission (-queue/-queue-workers), with the segmented pipeline
// (-seal-entries) absorbing the stream without stop-the-world compaction.
//
//	ferret-ingest -dir ./db -type image -data ./incoming -daemon \
//	    -ingest-rate 50 -queue 256 -seal-entries 4096
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ferret"
	"ferret/internal/evaltool"
)

func main() {
	var (
		dir      = flag.String("dir", "./ferret-db", "metadata directory")
		dtype    = flag.String("type", "image", "data type: image, audio, shape or genomic")
		data     = flag.String("data", "", "directory of data files to ingest")
		rate     = flag.Int("rate", 16000, "audio sample rate (type=audio)")
		matrix   = flag.String("matrix", "", "microarray TSV (type=genomic)")
		distance = flag.String("distance", "pearson", "genomic distance")
		evalFile = flag.String("eval", "", "benchmark file to evaluate after ingest")
		mode     = flag.String("mode", "filtering", "evaluation search mode")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		daemon   = flag.Bool("daemon", false, "keep rescanning -data until SIGTERM/SIGINT (sustained-rate ingest driver)")
		scanIntv = flag.Duration("scan-interval", 10*time.Second, "rescan interval in daemon mode")
		ingRate  = flag.Float64("ingest-rate", 0, "pace ingestion at this many objects per second (0 = unpaced)")
		queue    = flag.Int("queue", 0, "how many ingests may wait for a run slot; the scan blocks when full (0 = no bound)")
		queueWk  = flag.Int("queue-workers", 0, "admitted ingests that run at once, each on its producer's goroutine (0 = 1; needs -queue)")
		sealAt   = flag.Int("seal-entries", 0, "seal (and index) the mutable tail segment at this many entries, compact sealed segments in the background (0 = default 1024)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(2)
	}
	base := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	logger := base.With("component", "ferret-ingest")

	cfg, extractor, exts, err := systemFor(*dtype, *dir, *rate, *matrix, *distance)
	if err != nil {
		fatal(logger, "configuration failed", "err", err)
	}
	cfg.Store.Logger = base.With("component", "ferret-ingest/kvstore")
	cfg.Segments = ferret.SegmentParams{SealEntries: *sealAt}
	if *queue > 0 {
		cfg.Ingest = ferret.IngestParams{Depth: *queue, Workers: *queueWk}
	}
	sys, err := ferret.Open(ferret.RelaxedDurability(cfg), extractor)
	if err != nil {
		fatal(logger, "opening system failed", "dir", *dir, "err", err)
	}
	defer sys.Close()

	if *daemon {
		if *data == "" {
			fatal(logger, "daemon mode needs -data")
		}
		runDaemon(sys, logger, *data, exts, *scanIntv, *ingRate)
		if err := sys.Checkpoint(); err != nil {
			fatal(logger, "checkpoint failed", "err", err)
		}
		return
	}

	if *dtype == "genomic" && *matrix != "" {
		m, err := ferret.ParseMatrixTSV(*matrix)
		if err != nil {
			fatal(logger, "parsing matrix failed", "path", *matrix, "err", err)
		}
		added, err := sys.IngestMatrix(m, nil)
		if err != nil {
			fatal(logger, "matrix ingest failed", "path", *matrix, "err", err)
		}
		fmt.Printf("ingested %d genes\n", added)
	} else if *data != "" {
		sc := sys.NewScanner(*data, exts)
		sc.OnError = func(path string, err error) {
			logger.Warn("skipping file", "path", path, "err", err)
		}
		start := time.Now()
		added, err := sc.ScanOnce()
		if err != nil {
			fatal(logger, "scan failed", "dir", *data, "err", err)
		}
		fmt.Printf("ingested %d objects in %v (database now holds %d)\n",
			added, time.Since(start).Round(time.Millisecond), sys.Count())
	} else {
		fatal(logger, "nothing to do (pass -data or -matrix)")
	}
	if err := sys.Checkpoint(); err != nil {
		fatal(logger, "checkpoint failed", "err", err)
	}

	if *evalFile != "" {
		f, err := os.Open(*evalFile)
		if err != nil {
			fatal(logger, "opening benchmark failed", "path", *evalFile, "err", err)
		}
		sets, err := evaltool.ParseBenchmark(f)
		f.Close()
		if err != nil {
			fatal(logger, "parsing benchmark failed", "path", *evalFile, "err", err)
		}
		m, err := ferret.ParseMode(*mode)
		if err != nil {
			fatal(logger, "bad mode", "mode", *mode, "err", err)
		}
		rep, err := sys.Evaluate(sets, ferret.QueryOptions{Mode: m})
		if err != nil {
			fatal(logger, "evaluation failed", "err", err)
		}
		fmt.Println(rep)
	}
}

// runDaemon is the sustained-rate ingest driver: rescan the data directory
// until a signal arrives, pacing ingests at rate objects per second. Each
// scan's outcome is logged with the queue backlog and the rejection
// counter, so an operator watching the log sees backpressure as it happens.
func runDaemon(sys *ferret.System, logger *slog.Logger, data string, exts []string, interval time.Duration, rate float64) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sc := sys.NewScanner(data, exts)
	sc.Interval = interval
	sc.Rate = rate
	sc.OnError = func(path string, err error) {
		logger.Warn("skipping file", "path", path, "err", err)
	}
	logger.Info("ingest daemon running", "dir", data, "interval", interval, "rate", rate)
	reg := sys.Telemetry()
	for added := range sc.Run(ctx) {
		if added > 0 {
			logger.Info("scan complete", "added", added, "objects", sys.Count(),
				"queue_depth", sys.IngestQueueDepth(),
				"rejected", int(reg.Value("ferret_ingest_rejected_total")),
				"seals", int(reg.Value("ferret_seal_total")),
				"merges", int(reg.Value("ferret_merge_total")))
		}
	}
	logger.Info("ingest daemon stopping", "objects", sys.Count())
}

func systemFor(dtype, dir string, rate int, matrix, distance string) (ferret.Config, ferret.Extractor, []string, error) {
	switch dtype {
	case "image":
		return ferret.ImageConfig(dir), ferret.ImageExtractor(), []string{".png", ".ppm"}, nil
	case "audio":
		return ferret.AudioConfig(dir), ferret.AudioExtractor(rate), []string{".wav"}, nil
	case "shape":
		return ferret.ShapeConfig(dir), ferret.ShapeExtractor(), []string{".off"}, nil
	case "sensor", "sensors":
		lo := []float32{-3, -3, -3}
		hi := []float32{3, 3, 3}
		return ferret.SensorConfig(dir, lo, hi), ferret.SensorExtractor(0, 0), []string{".csv"}, nil
	case "genomic":
		if matrix == "" {
			return ferret.Config{}, nil, nil, fmt.Errorf("type=genomic requires -matrix")
		}
		m, err := ferret.ParseMatrixTSV(matrix)
		if err != nil {
			return ferret.Config{}, nil, nil, err
		}
		min, max := m.Bounds()
		cfg, err := ferret.GenomicConfig(dir, min, max, distance)
		if err != nil {
			return ferret.Config{}, nil, nil, err
		}
		return cfg, ferret.GenomicExtractor(), []string{".tsv"}, nil
	default:
		return ferret.Config{}, nil, nil, fmt.Errorf("unknown data type %q", dtype)
	}
}

// fatal logs msg and its key-value pairs at error level, then exits 1.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
