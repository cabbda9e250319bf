// Command ferretd runs a Ferret similarity search server: the core
// components and the selected data-type plug-in linked into one concurrent
// program (paper §3), serving the command-line query protocol over TCP and,
// optionally, the web interface and the directory-scan data acquisition
// loop.
//
//	ferretd -dir /var/lib/ferret -type image -addr :7070 -web :8080 -scan ./incoming
//
// Data types: image (.png/.ppm), audio (.wav mono 16-bit PCM), shape
// (.off), sensor (.csv), genomic (-matrix expression.tsv, ingested at
// startup).
//
// Observability: -debug-addr serves Prometheus metrics at /metrics, expvar
// JSON at /debug/vars, runtime profiles at /debug/pprof/ and retained query
// traces at /debug/traces on a private listener; logs are log/slog text
// lines on stderr, one component= tag each (-log-level). -trace-sample and
// -slow-query tune the query tracer's head sampling and slow-query log;
// both negative retain only the traces clients ask for.
package main

import (
	"context"
	"flag"
	"fmt"
	"html/template"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ferret"
)

func main() {
	var (
		dir       = flag.String("dir", "./ferret-db", "metadata directory")
		dtype     = flag.String("type", "image", "data type: image, audio, shape, sensor or genomic")
		addr      = flag.String("addr", "127.0.0.1:7070", "protocol listen address")
		webAddr   = flag.String("web", "", "web interface listen address (empty = disabled)")
		debugAddr = flag.String("debug-addr", "", "observability listen address for /metrics, /debug/vars, /debug/pprof/ (empty = disabled)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		scanDir   = flag.String("scan", "", "data acquisition directory (empty = disabled)")
		scanIntv  = flag.Duration("scan-interval", 10*time.Second, "acquisition scan interval")
		rate      = flag.Int("rate", 16000, "audio sample rate (type=audio)")
		matrix    = flag.String("matrix", "", "microarray TSV to ingest at startup (type=genomic)")
		distance  = flag.String("distance", "pearson", "genomic distance: pearson, spearman or l1")
		relaxed   = flag.Bool("relaxed-durability", false, "periodic fsync instead of per-commit (paper §4.1.3)")
		budget    = flag.Duration("query-budget", 0, "per-query time budget; expired queries answer degraded (0 = unbounded)")
		maxConns  = flag.Int("max-conns", 0, "max concurrent protocol connections; excess get a BUSY error (0 = unlimited)")
		grace     = flag.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight queries on SIGTERM/SIGINT")
		hindexOn  = flag.Bool("hindex", false, "build the multi-table Hamming index over sealed segments' sketches (sub-linear k-nearest filter; a query segment falls back to the scan once its descent has cost as much)")
		traceEach = flag.Int("trace-sample", 0, "retain every Nth query trace (0 = default 64, negative = sampling off, forced/slow traces still kept)")
		slowQuery = flag.Duration("slow-query", 0, "slow-query log threshold: traces at least this slow are always retained (0 = default 100ms, negative = off)")
		sealAt    = flag.Int("seal-entries", 0, "seal (and index) the mutable tail segment at this many entries; sealed segments are compacted in the background (0 = default 1024)")
		compIntv  = flag.Duration("compact-interval", 0, "background compaction wake-up interval (0 = default 1s, negative = off)")
		ingQueue  = flag.Int("ingest-queue", 0, "how many ADDFILE and acquisition ingests may wait for a run slot; producers block when full (0 = no bound)")
		ingWork   = flag.Int("ingest-workers", 0, "admitted ingests that run at once, each on its producer's goroutine (0 = 1; needs -ingest-queue)")
		ingShed   = flag.Bool("ingest-shed", false, "reject ingests with BUSY when every slot is taken instead of blocking (needs -ingest-queue)")
		rcacheOn  = flag.Bool("result-cache", false, "enable the hot-query result cache (invalidated by every write, bit-identical answers)")
		rcacheMax = flag.Int("result-cache-bytes", 0, "result cache memory bound in bytes (0 = default 8 MiB; needs -result-cache)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	base := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	logger := base.With("component", "ferretd")

	cfg, extractor, exts, m, err := ferret.ForType(*dtype, *dir, *rate, *matrix, *distance)
	if err != nil {
		fatal(logger, "configuration failed", "err", err)
	}
	if *relaxed {
		cfg = ferret.RelaxedDurability(cfg)
	}
	cfg.HIndex = ferret.HIndexParams{Enable: *hindexOn}
	cfg.Trace = ferret.TraceParams{SampleEvery: *traceEach, SlowThreshold: *slowQuery}
	cfg.Segments = ferret.SegmentParams{SealEntries: *sealAt, Interval: *compIntv}
	if *ingQueue > 0 {
		cfg.Ingest = ferret.IngestParams{Depth: *ingQueue, Workers: *ingWork, Shed: *ingShed}
	}
	if *rcacheOn {
		cfg.ResultCache = ferret.ResultCacheParams{Enable: true, MaxBytes: *rcacheMax}
	}
	cfg.Store.Logger = base.With("component", "ferretd/kvstore")
	sys, err := ferret.Open(cfg, extractor)
	if err != nil {
		fatal(logger, "opening system failed", "dir", *dir, "err", err)
	}
	defer sys.Close()
	sys.SetLogger(base.With("component", "ferretd/server"))
	sys.SetServerConfig(ferret.ServerConfig{QueryBudget: *budget, MaxConns: *maxConns})

	if m != nil {
		added, err := ingestMatrixOnce(sys, m)
		if err != nil {
			fatal(logger, "ingesting matrix failed", "path", *matrix, "err", err)
		}
		if added > 0 {
			logger.Info("ingested matrix", "genes", added, "path", *matrix)
		}
	}
	logger.Info("database opened", "dir", *dir, "type", *dtype, "objects", sys.Count())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		go func() {
			logger.Info("observability endpoint", "addr", *debugAddr,
				"paths", "/metrics /debug/vars /debug/pprof/ /debug/traces")
			srv := &http.Server{Addr: *debugAddr, Handler: sys.DebugHandler()}
			go func() {
				<-ctx.Done()
				srv.Close()
			}()
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug endpoint failed", "addr", *debugAddr, "err", err)
			}
		}()
	}

	if *scanDir != "" {
		sc := sys.NewScanner(*scanDir, exts)
		sc.Interval = *scanIntv
		sc.OnError = func(path string, err error) {
			logger.Warn("acquisition error", "path", path, "err", err)
		}
		ch := sc.Run(ctx)
		go func() {
			for added := range ch {
				if added > 0 {
					logger.Info("acquired objects", "added", added, "dir", *scanDir)
				}
			}
		}()
		logger.Info("acquisition scanning", "dir", *scanDir, "interval", *scanIntv)
	}

	if *webAddr != "" {
		go func() {
			logger.Info("web interface serving", "url", "http://"+*webAddr+"/")
			handler := webHandler(sys, *dtype, *scanDir)
			srv := &http.Server{Addr: *webAddr, Handler: handler}
			go func() {
				<-ctx.Done()
				srv.Close()
			}()
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("web interface failed", "err", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen failed", "addr", *addr, "err", err)
	}
	logger.Info("query protocol serving", "addr", *addr,
		"query_budget", budget.String(), "max_conns", *maxConns)
	serveErr := make(chan error, 1)
	go func() { serveErr <- sys.ServeContext(context.Background(), l) }()
	select {
	case err := <-serveErr:
		if err != nil && ctx.Err() == nil {
			fatal(logger, "serve failed", "err", err)
		}
	case <-ctx.Done():
		// SIGTERM/SIGINT: drain in-flight queries within the grace window,
		// then abort whatever is still running.
		logger.Info("signal received: draining connections", "grace", grace.String())
		gctx, cancel := context.WithTimeout(context.Background(), *grace)
		drained, aborted, err := sys.Shutdown(gctx)
		cancel()
		if err != nil {
			logger.Warn("drain grace expired", "drained", drained, "aborted", aborted, "err", err)
		} else {
			logger.Info("connections drained", "drained", drained, "aborted", aborted)
		}
	}
	logger.Info("shutting down")
}

// webHandler assembles the web UI with a data-type specific presenter
// (paper Figures 10–12 show thumbnails and audio players next to results).
// When a data directory is being scanned, its files are served under
// /data/ so image results render inline and audio results get players.
func webHandler(sys *ferret.System, dtype, dataDir string) http.Handler {
	var present func(key string) template.HTML
	if dataDir != "" {
		switch dtype {
		case "image":
			present = func(key string) template.HTML {
				u := url.URL{Path: "/data/" + key}
				return template.HTML(fmt.Sprintf(`<img src="%s" height="48" alt="">`, u.EscapedPath()))
			}
		case "audio":
			present = func(key string) template.HTML {
				u := url.URL{Path: "/data/" + key}
				return template.HTML(fmt.Sprintf(`<audio controls preload="none" src="%s"></audio>`, u.EscapedPath()))
			}
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/", sys.WebHandler("Ferret: "+dtype+" search", present))
	if dataDir != "" {
		mux.Handle("/data/", http.StripPrefix("/data/", http.FileServer(http.Dir(dataDir))))
	}
	return mux
}

// ingestMatrixOnce loads matrix rows not yet present (restart-safe).
func ingestMatrixOnce(sys *ferret.System, m *ferret.Matrix) (int, error) {
	added := 0
	for i := range m.Genes {
		if _, ok := sys.LookupKey(m.Genes[i]); ok {
			continue
		}
		if _, err := sys.Ingest(m.RowObject(i), ferret.Attrs{"gene": m.Genes[i]}); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// fatal logs msg and its key-value pairs at error level, then exits 1.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
