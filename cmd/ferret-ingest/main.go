// Command ferret-ingest bulk-loads a directory of data files into a Ferret
// database through the selected plug-in, then exits — the one-shot variant
// of the server's acquisition loop, useful for building a database offline
// before starting ferretd. It can also run the performance evaluation tool
// against a benchmark file after ingest.
//
//	ferret-ingest -dir ./db -type image -data ./data
//	ferret-ingest -dir ./db -type image -data ./data -eval ./data/vary.bench -mode sketch
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"ferret"
	"ferret/internal/evaltool"
)

func main() {
	var (
		dir      = flag.String("dir", "./ferret-db", "metadata directory")
		dtype    = flag.String("type", "image", "data type: image, audio, shape, sensor or genomic")
		data     = flag.String("data", "", "directory of data files to ingest")
		rate     = flag.Int("rate", 16000, "audio sample rate (type=audio)")
		matrix   = flag.String("matrix", "", "microarray TSV (type=genomic)")
		distance = flag.String("distance", "pearson", "genomic distance")
		evalFile = flag.String("eval", "", "benchmark file to evaluate after ingest")
		mode     = flag.String("mode", "filtering", "evaluation search mode")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
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

	cfg, extractor, exts, m, err := ferret.ForType(*dtype, *dir, *rate, *matrix, *distance)
	if err != nil {
		fatal(logger, "configuration failed", "err", err)
	}
	cfg.Store.Logger = base.With("component", "ferret-ingest/kvstore")
	cfg.Segments = ferret.SegmentParams{SealEntries: *sealAt}
	sys, err := ferret.Open(ferret.RelaxedDurability(cfg), extractor)
	if err != nil {
		fatal(logger, "opening system failed", "dir", *dir, "err", err)
	}
	defer sys.Close()

	if m != nil {
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

// fatal logs msg and its key-value pairs at error level, then exits 1.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
