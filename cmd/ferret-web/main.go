// Command ferret-web runs the Ferret web interface as a stand-alone
// process connected to a running ferretd through the command-line query
// protocol — the paper's deployment shape (§4.3), where the web server and
// the search server are separate programs.
//
//	ferret-web -addr :8080 -server 127.0.0.1:7070 -title "Image search"
//
// -debug-addr serves this process's own observability endpoint (/metrics
// with HTTP request counts and latency, /debug/vars, /debug/pprof/).
package main

import (
	"flag"
	"log/slog"
	"net/http"
	"os"

	"ferret/internal/protocol"
	"ferret/internal/telemetry"
	"ferret/internal/webui"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		server    = flag.String("server", "127.0.0.1:7070", "ferretd protocol address")
		title     = flag.String("title", "Ferret similarity search", "page title")
		debugAddr = flag.String("debug-addr", "", "observability listen address (empty = disabled)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})).With("component", "ferret-web")

	client, err := protocol.Dial(*server)
	if err != nil {
		fatal(logger, "connecting to backend failed", "server", *server, "err", err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		fatal(logger, "backend ping failed", "server", *server, "err", err)
	}

	reg := telemetry.NewRegistry()
	handler := telemetry.InstrumentHTTP(reg, "webui", webui.Handler(client, *title, nil))

	if *debugAddr != "" {
		go func() {
			logger.Info("observability endpoint", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, telemetry.DebugHandler(reg)); err != nil {
				logger.Error("debug endpoint failed", "addr", *debugAddr, "err", err)
			}
		}()
	}

	logger.Info("web interface serving", "url", "http://"+*addr+"/", "backend", *server)
	if err := http.ListenAndServe(*addr, handler); err != nil {
		fatal(logger, "serve failed", "err", err)
	}
}

// fatal logs msg and its key-value pairs at error level, then exits 1.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
