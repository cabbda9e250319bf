// Package server runs the Ferret toolkit's command-line query interface
// (paper §4.1.4) over TCP: one goroutine per connection, one request line
// per response. The core components and the data-type specific algorithm
// implementations are linked into this single concurrent program, while
// clients (web interface, scripts, evaluation tools) connect remotely.
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ferret/internal/attr"
	"ferret/internal/core"
	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/protocol"
	"ferret/internal/telemetry"
	"ferret/internal/telemetry/trace"
)

// ExtractFunc is the plug-in segmentation and feature extraction entry
// point (the paper's seg_extract_func): it converts a data file into a
// Ferret object.
type ExtractFunc func(path string) (object.Object, error)

// Server serves protocol requests against a core engine.
type Server struct {
	Engine *core.Engine
	// Extract handles QUERYFILE and ADDFILE; nil disables them.
	Extract ExtractFunc
	// DefaultK is the result count when the client does not pass k.
	DefaultK int
	// QueryBudget, when positive, is the per-query time budget: a query
	// whose budget expires mid-rank answers with its best results so far,
	// flagged degraded (see core.QueryOptions.Budget). Clients may request
	// a tighter budget per query (budget=...), never a looser one.
	QueryBudget time.Duration
	// MaxConns, when positive, caps concurrent client connections; excess
	// connections are answered with a single BUSY error and closed
	// (ferret_conns_shed_total counts them).
	MaxConns int
	// ReadTimeout, when positive, bounds the wait for each request line —
	// an idle-connection timeout.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each response write.
	WriteTimeout time.Duration
	// Telemetry is the registry the server records request metrics into.
	// nil uses the engine's registry, so one /metrics endpoint covers both
	// the serving layer and the query pipeline.
	Telemetry *telemetry.Registry
	// Logger, when set, logs connection lifecycle events.
	Logger *telemetry.Logger

	metOnce sync.Once
	met     *serverMetrics

	// draining tells connection handlers to close after the in-flight
	// request instead of reading another (set by Shutdown).
	draining atomic.Bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	wg       sync.WaitGroup
	closed   bool
	// queryCancel aborts every in-flight query's context; Shutdown fires it
	// when the drain grace expires so handlers unwind promptly instead of
	// finishing arbitrarily long scans against a closed connection.
	queryCtx    context.Context
	queryCancel context.CancelFunc
}

// connState tracks one client connection; busy is true while a request is
// being served, so Shutdown can tell in-flight work from idle connections.
// One request is in flight at a time per connection, so what a request needs
// lives here and is reused: req is the decoded request (its byte fields alias
// fbuf, the v2 frame read buffer), rows the scratch a query answer's result
// rows are converted into, and tr the trace recording buffer traced requests
// arm in place — serving a request allocates nothing of its own.
type connState struct {
	conn net.Conn
	busy atomic.Bool
	v2   bool // upgraded by HELLO proto=v2: requests arrive as frames
	req  protocol.Command
	fbuf []byte
	rows []protocol.Result
	tr   trace.Active
}

// serverMetrics are the serving layer's telemetry handles: per-command
// request counters, transport byte counters, error counts, and gauges for
// in-flight work.
type serverMetrics struct {
	reg          *telemetry.Registry
	requests     map[string]*telemetry.Counter // ferret_server_requests_total{cmd=...}
	unknown      *telemetry.Counter            // ferret_server_unknown_requests_total
	errors       *telemetry.Counter            // ferret_server_errors_total
	bytesRead    *telemetry.Counter            // ferret_server_read_bytes_total
	bytesWritten *telemetry.Counter            // ferret_server_written_bytes_total
	inflight     *telemetry.Gauge              // ferret_server_inflight_requests
	conns        *telemetry.Gauge              // ferret_server_connections
	connsTotal   *telemetry.Counter            // ferret_server_connections_total
	shed         *telemetry.Counter            // ferret_conns_shed_total
	latency      *telemetry.Histogram          // ferret_server_request_seconds
	v2Conns      *telemetry.Gauge              // ferret_server_v2_connections
	v2Upgrades   *telemetry.Counter            // ferret_server_v2_upgrades_total
	wireGets     *telemetry.Gauge              // ferret_wire_buf_gets_total
	wireMisses   *telemetry.Gauge              // ferret_wire_buf_misses_total
	wirePuts     *telemetry.Gauge              // ferret_wire_buf_puts_total
}

// refreshWireBuf publishes the wire-buffer pool counters into their
// telemetry gauges (called when a stats or telemetry dump is assembled).
func (m *serverMetrics) refreshWireBuf() {
	m.wireGets.Set(wireBufGets.Load())
	m.wireMisses.Set(wireBufMisses.Load())
	m.wirePuts.Set(wireBufPuts.Load())
}

// metrics lazily resolves the registry (Telemetry field, else the engine's)
// and registers the serving-layer metrics exactly once per Server.
func (s *Server) metrics() *serverMetrics {
	s.metOnce.Do(func() {
		reg := s.Telemetry
		if reg == nil && s.Engine != nil {
			reg = s.Engine.Telemetry()
		}
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		m := &serverMetrics{
			reg:          reg,
			requests:     make(map[string]*telemetry.Counter),
			unknown:      reg.Counter("ferret_server_unknown_requests_total", "Requests with an unrecognized command."),
			errors:       reg.Counter("ferret_server_errors_total", "Requests answered with an ERR response."),
			bytesRead:    reg.Counter("ferret_server_read_bytes_total", "Protocol bytes read from clients."),
			bytesWritten: reg.Counter("ferret_server_written_bytes_total", "Protocol bytes written to clients."),
			inflight:     reg.Gauge("ferret_server_inflight_requests", "Requests currently being served."),
			conns:        reg.Gauge("ferret_server_connections", "Open client connections."),
			connsTotal:   reg.Counter("ferret_server_connections_total", "Client connections accepted."),
			shed:         reg.Counter("ferret_conns_shed_total", "Connections refused with BUSY at the connection limit."),
			latency:      reg.Histogram("ferret_server_request_seconds", "Protocol request latency in seconds.", nil),
			v2Conns:      reg.Gauge("ferret_server_v2_connections", "Open connections speaking the binary protocol v2."),
			v2Upgrades:   reg.Counter("ferret_server_v2_upgrades_total", "Successful HELLO proto=v2 negotiations."),
			wireGets:     reg.Gauge("ferret_wire_buf_gets_total", "Wire buffers drawn from the size-class pools."),
			wireMisses:   reg.Gauge("ferret_wire_buf_misses_total", "Wire-buffer gets that had to allocate."),
			wirePuts:     reg.Gauge("ferret_wire_buf_puts_total", "Wire buffers returned to the size-class pools."),
		}
		for _, cmd := range protocol.Commands {
			m.requests[cmd] = reg.Counter("ferret_server_requests_total", "Protocol requests served, by command.", "cmd", cmd)
		}
		s.met = m
	})
	return s.met
}

// countingWriter publishes everything written through it to a byte counter.
type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(n)
	return n, err
}

// errBusy is the polite shed response at the connection limit. The BUSY
// marker is load-bearing: clients (evaltool's retry loop) treat it as
// transient and back off instead of failing the run.
var errBusy = errors.New("BUSY: server at connection limit, retry later")

// errIngestBusy is the bounded ingest queue's shed response. Same BUSY
// marker as the connection limit: transient, back off and retry.
var errIngestBusy = errors.New("BUSY: ingest queue full, retry later")

// errPoisoned is the wire form of a poisoned metadata store: a failed fsync
// made durability unknowable, so every further mutation is rejected until
// the process restarts and recovery replays the committed prefix. The
// "poisoned" marker is distinct from BUSY on purpose — retrying cannot
// help, an operator has to intervene.
var errPoisoned = errors.New("poisoned: metadata store rejects writes after a failed sync, restart to recover")

// mutationErr maps engine write-path failures to their wire forms; other
// errors pass through unchanged.
func mutationErr(err error) error {
	switch {
	case errors.Is(err, kvstore.ErrPoisoned):
		return errPoisoned
	case errors.Is(err, core.ErrOverloaded):
		return errIngestBusy
	}
	return err
}

// Serve accepts connections on l until ctx is cancelled or Shutdown/Close
// is called. It always returns a non-nil error (net.ErrClosed after a clean
// shutdown). In-flight queries run under a context derived from ctx's
// values but cancelled only by Shutdown's grace expiry, so a cancelled ctx
// stops accepting without aborting work mid-drain.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	if s.queryCtx == nil {
		s.queryCtx, s.queryCancel = context.WithCancel(context.WithoutCancel(ctx))
	}
	qctx := s.queryCtx
	s.mu.Unlock()
	unwatch := context.AfterFunc(ctx, func() { l.Close() })
	defer unwatch()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.mu.Unlock()
			s.shedConn(conn)
			continue
		}
		st := &connState{conn: conn}
		s.conns[conn] = st
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(qctx, st)
		}()
	}
}

// shedConn answers one over-limit connection with BUSY and closes it.
func (s *Server) shedConn(conn net.Conn) {
	met := s.metrics()
	met.shed.Inc()
	if s.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
	protocol.WriteError(conn, errBusy)
	conn.Close()
	s.Logger.Warn("connection shed: at connection limit",
		"remote", conn.RemoteAddr().String(), "max_conns", s.MaxConns)
}

// Close stops accepting and closes all active connections immediately
// (zero-grace Shutdown).
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

// Shutdown stops accepting and drains: idle connections close immediately,
// while connections with a request in flight get until ctx expires to
// finish it. On grace expiry the remaining queries' contexts are cancelled
// and their connections closed. It reports how many busy connections
// drained cleanly versus were aborted, and ctx's error when the grace
// expired. Safe to call concurrently with Serve; subsequent calls are
// no-ops.
func (s *Server) Shutdown(ctx context.Context) (drained, aborted int, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return 0, 0, nil
	}
	s.closed = true
	s.draining.Store(true)
	if s.listener != nil {
		s.listener.Close()
	}
	var busy []*connState
	for c, st := range s.conns {
		if st.busy.Load() {
			busy = append(busy, st)
		} else {
			// Idle: no request in flight, nothing to lose.
			c.Close()
		}
	}
	cancelQueries := s.queryCancel
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		for _, st := range busy {
			if st.busy.Load() {
				aborted++
			}
			st.conn.Close()
		}
		if cancelQueries != nil {
			cancelQueries()
		}
		<-done
	}
	drained = len(busy) - aborted
	return drained, aborted, err
}

// handleConn serves one connection: text request lines until the client
// negotiates the binary protocol (HELLO proto=v2), v2 frames from then on.
// Either way a request is decoded into the connection's Command, served by
// the one handler table and answered in the framing it arrived in.
func (s *Server) handleConn(ctx context.Context, st *connState) {
	conn := st.conn
	met := s.metrics()
	met.conns.Add(1)
	met.connsTotal.Inc()
	s.Logger.Debug("connection opened", "remote", conn.RemoteAddr().String())
	defer func() {
		conn.Close()
		met.conns.Add(-1)
		if st.v2 {
			met.v2Conns.Add(-1)
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// The writer is boxed into its interface once per connection, so the
	// per-request calls don't re-box it (an allocation the v2 QUERY path's
	// 0 allocs/op contract cannot afford). One reader serves both framings:
	// bytes the client pipelined behind its HELLO are already binary frames.
	var w io.Writer = countingWriter{w: conn, c: met.bytesWritten}
	rd := bufio.NewReaderSize(conn, 1<<16)
	// A transport error drops the connection; a drain lets the request in
	// flight finish, then hangs up.
	for err := error(nil); err == nil && !s.draining.Load(); {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		if st.v2 {
			err = s.serveFrame(ctx, w, rd, st)
		} else {
			err = s.serveLine(ctx, w, rd, st)
		}
	}
}

// begin marks the connection busy, from parse to response: Shutdown counts
// it as in-flight and gives it the drain grace.
func (s *Server) begin(st *connState) {
	st.busy.Store(true)
	if s.WriteTimeout > 0 {
		st.conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
}

// serveLine reads and serves one text request line (blank lines are
// skipped). The returned error is a transport error.
func (s *Server) serveLine(ctx context.Context, w io.Writer, rd *bufio.Reader, st *connState) error {
	line, err := readLine(rd)
	if err != nil {
		return err
	}
	s.metrics().bytesRead.Add(len(line) + 1) // +1 for the newline
	if line = strings.TrimSpace(line); line == "" {
		return nil
	}
	s.begin(st)
	if line == "HELLO" || strings.HasPrefix(line, "HELLO ") {
		err = s.handleHello(w, st, line)
	} else {
		start := time.Now() // before the decode: a traced request's parse span covers it
		err = s.serve(ctx, w, st, textEncoder{}, false, start, protocol.DecodeLine(&st.req, line))
	}
	st.busy.Store(false)
	return err
}

// maxLineBytes bounds one text request line (the old Scanner buffer limit).
const maxLineBytes = 1 << 20

// readLine reads one newline-terminated request line, enforcing the length
// cap without unbounded buffering. A final unterminated line before EOF is
// still returned (Scanner semantics).
func readLine(rd *bufio.Reader) (string, error) {
	var long []byte
	for {
		frag, err := rd.ReadSlice('\n')
		if long == nil && err == nil {
			return string(frag[:len(frag)-1]), nil // common case: one read
		}
		long = append(long, frag...)
		if len(long) > maxLineBytes {
			return "", errors.New("server: request line too long")
		}
		switch err {
		case nil:
			return string(long[:len(long)-1]), nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(long) > 0 {
				return string(long), nil
			}
			return "", io.EOF
		default:
			return "", err
		}
	}
}

// handleHello answers a HELLO negotiation line: proto=v2 is confirmed with a
// pairs response and switches the connection to v2 frames; anything else is
// refused with ERR and leaves it on the text protocol. The returned error is
// a transport error.
func (s *Server) handleHello(w io.Writer, st *connState, line string) error {
	req, err := protocol.ParseRequest(line)
	if proto := req.Args["proto"]; err == nil && proto != protocol.HelloV2Value {
		err = fmt.Errorf("unsupported protocol %q", proto)
	}
	resp := response{pairs: map[string]string{"proto": protocol.HelloV2Value}}
	werr := s.respond(w, textEncoder{}, false, &resp, err)
	if werr == nil && err == nil {
		st.v2 = true
		s.metrics().v2Upgrades.Inc()
		s.metrics().v2Conns.Add(1)
	}
	return werr
}

// serveFrame reads and serves one v2 request frame (see
// internal/protocol/binary.go for the wire format). The returned error — a
// transport error, or a malformed length word — ends the connection. The
// frame buffer is reused across requests, but one that a request grew past
// the largest wire-buffer class is dropped afterwards: like the response
// buffers (wirebuf.go), a single huge frame must not pin its memory for as
// long as the client stays connected.
func (s *Server) serveFrame(ctx context.Context, w io.Writer, rd *bufio.Reader, st *connState) error {
	op, payload, buf, err := protocol.ReadFrame(rd, st.fbuf)
	st.fbuf = buf
	if err != nil {
		return err
	}
	s.metrics().bytesRead.Add(len(buf) + 4)
	s.begin(st)
	err = s.handleFrame(ctx, w, st, op, payload)
	st.busy.Store(false)
	if cap(st.fbuf) > wireClassSizes[wireClasses-1] {
		st.fbuf = nil
	}
	return err
}

// handleFrame serves one v2 request frame, as serveLine does a line: it
// takes the parse timestamp, decodes the frame into the connection's Command
// and picks the encoder that answers in kind — for the OpText tunnel, the
// text decoder and the text encoder inside a frame.
func (s *Server) handleFrame(ctx context.Context, w io.Writer, st *connState, op byte, payload []byte) error {
	start := time.Now()
	var enc encoder = v2Encoder{}
	if op == protocol.OpText {
		enc = textEncoder{}
	}
	return s.serve(ctx, w, st, enc, true, start, protocol.DecodeFrame(&st.req, op, payload))
}

// serve runs the connection's decoded request (or its decode error) through
// the handler table and writes exactly one response through enc, framed for
// an upgraded connection. The returned error is a transport error;
// request-level failures become error responses. Every request is counted by
// command, gauged while in flight, and timed from the start of its decode
// into the server latency histogram (no deferred closure — the v2 QUERY path
// stays allocation-free). ctx cancels in-flight queries (fired by Shutdown
// when the drain grace expires).
func (s *Server) serve(ctx context.Context, w io.Writer, st *connState, enc encoder, framed bool, start time.Time, err error) error {
	met := s.metrics()
	if c, ok := met.requests[st.req.Cmd]; ok {
		c.Inc()
	} else {
		met.unknown.Inc()
	}
	met.inflight.Add(1)
	var resp response
	if err == nil {
		resp, err = s.handle(ctx, st, start)
	}
	werr := s.respond(w, enc, framed, &resp, err)
	met.inflight.Add(-1)
	met.latency.ObserveSince(start)
	return werr
}

// maxK bounds a query's result count at what a v2 frame's u16 can carry. The
// text framing parses any integer, and the engine sizes its top-k heap by k
// up front, so an unbounded k is a one-line remote crash.
const maxK = 0xffff

// maxBatchKeys caps one BATCHQUERY request, keeping a single request's work
// (and its response) bounded.
const maxBatchKeys = 256

// handle is the command table: what each command does, once for both
// framings. It validates the request's options, talks to the engine, and
// returns the response in one of three shapes for the connection's encoder
// to render.
func (s *Server) handle(ctx context.Context, st *connState, start time.Time) (response, error) {
	req := &st.req
	switch req.Cmd {
	case protocol.CmdPing:
		return response{}, nil

	case protocol.CmdCount:
		return response{pairs: map[string]string{"count": strconv.Itoa(s.Engine.Count())}}, nil

	case protocol.CmdQuery, protocol.CmdQueryFile:
		return s.query(ctx, st, start)

	case protocol.CmdBatchQuery:
		// n keys sharing one set of query options, answered through
		// SearchBatch: one Search per key, run concurrently.
		if n := len(req.Keys); n == 0 || n > maxBatchKeys {
			return response{}, fmt.Errorf("bad batch size %d (1..%d)", n, maxBatchKeys)
		}
		opt, err := s.queryOptions(req)
		if err != nil {
			return response{}, err
		}
		// Tracing a batch: each query gets its own engine-armed,
		// force-retained trace, and its group's flags carry the trace ID and
		// stage breakdown.
		if req.Trace != "" {
			if _, err := s.tracer(); err != nil {
				return response{}, err
			}
			opt.ForceTrace = true
		}
		return response{shape: shapeBatch, batch: s.runBatch(ctx, req.Keys, opt)}, nil

	case protocol.CmdAddFile:
		o, err := s.extract(req.Path)
		if err != nil {
			return response{}, err
		}
		// Through the bounded ingest queue when one is configured: a full
		// queue blocks this handler (backpressure) or sheds with BUSY.
		if _, err := s.Engine.IngestQueued(ctx, o, attr.Attrs(req.Attrs)); err != nil {
			return response{}, mutationErr(err)
		}
		return response{}, nil

	case protocol.CmdSearch:
		if len(req.Keywords) == 0 && len(req.Attrs) == 0 {
			return response{}, errors.New("SEARCH needs keywords or attributes")
		}
		ids := s.Engine.Attrs().Search(attr.Query{Keywords: req.Keywords, Equal: attr.Attrs(req.Attrs)})
		resp := response{shape: shapeRows, rows: make([]protocol.Result, len(ids))}
		for i, id := range ids {
			resp.rows[i].Key = s.Engine.Meta().Key(id)
		}
		return resp, nil

	case protocol.CmdStats:
		return response{pairs: s.statsPairs()}, nil

	case protocol.CmdTelemetry:
		// Full telemetry dump: every registered series as flat name=value
		// pairs, covering both the query pipeline and the serving layer.
		met := s.metrics()
		met.refreshWireBuf()
		pairs := map[string]string{}
		regs := []*telemetry.Registry{met.reg}
		if er := s.Engine.Telemetry(); er != met.reg {
			regs = append(regs, er)
		}
		for _, reg := range regs {
			reg.Each(func(name string, v float64) { pairs[name] = formatMetric(v) })
		}
		return response{pairs: pairs}, nil

	case protocol.CmdDelete:
		id, err := s.lookup(req.Key)
		if err != nil {
			return response{}, err
		}
		return response{}, mutationErr(s.Engine.Delete(id))

	case protocol.CmdTrace:
		pairs, err := s.tracePairs(req.N, req.Slow, req.ID)
		return response{pairs: pairs}, err

	case protocol.CmdInfo:
		id, err := s.lookup(req.Key)
		if err != nil {
			return response{}, err
		}
		attrs, _ := s.Engine.Attrs().Get(id)
		pairs := map[string]string{"key": string(req.Key), "id": strconv.FormatUint(uint64(id), 10)}
		for k, v := range attrs {
			pairs["attr:"+k] = v
		}
		return response{pairs: pairs}, nil

	default:
		return response{}, fmt.Errorf("unknown command %q", req.Cmd)
	}
}

// extract runs the plug-in extractor on a data file (QUERYFILE, ADDFILE).
func (s *Server) extract(path string) (object.Object, error) {
	if s.Extract == nil {
		return object.Object{}, errors.New("no extractor plugged in")
	}
	return s.Extract(path)
}

// lookup resolves an object key straight out of the request (for a v2 frame,
// out of the read buffer — no string conversion).
func (s *Server) lookup(key []byte) (object.ID, error) {
	id, ok := s.Engine.Meta().LookupKeyBytes(key)
	if !ok {
		return 0, fmt.Errorf("unknown object key %q", key)
	}
	return id, nil
}

// query answers QUERY (a stored object, by key) and QUERYFILE (a data file
// run through the plug-in extractor): one similarity search. On a v2 QUERY
// this is the serving layer's zero-copy contract: the key is resolved out of
// the request frame, a result-cache hit is converted into the connection's
// row scratch and encoded from there into a pooled wire buffer — zero heap
// allocations per request at steady state (TestServePathAllocs).
func (s *Server) query(ctx context.Context, st *connState, start time.Time) (response, error) {
	req := &st.req
	opt, err := s.queryOptions(req)
	if err != nil {
		return response{}, err
	}
	// The query object: a stored one searches by ID unless its weights are
	// adjusted, which (like an extracted file) needs the feature vectors.
	var (
		id   object.ID
		o    object.Object
		byID bool
	)
	if req.Cmd == protocol.CmdQuery {
		if id, err = s.lookup(req.Key); err != nil {
			return response{}, err
		}
		byID = req.SegWeights == ""
		if !byID {
			var ok bool
			if o, ok = s.Engine.Meta().GetObject(id); !ok {
				return response{}, errors.New("segweights requires stored feature vectors")
			}
		}
	} else if o, err = s.extract(req.Path); err != nil {
		return response{}, err
	}
	if req.SegWeights != "" {
		if err := reweight(&o, req.SegWeights); err != nil {
			return response{}, err
		}
	}
	tr, err := s.armTrace(st, start)
	if err != nil {
		return response{}, err
	}
	opt.Trace = tr
	var ans core.Answer
	if byID {
		ans, err = s.Engine.SearchByID(ctx, id, opt)
	} else {
		ans, err = s.Engine.Search(ctx, o, opt)
	}
	if err != nil {
		return response{tr: tr}, err
	}
	// For a traced request the head-line flags carry the trace ID and the
	// aggregated stage breakdown so far; the response write is recorded
	// afterwards (respond), visible in the retained trace only — it can't
	// time itself into the bytes it produces.
	if tr.Armed() {
		ans.Trace = &core.TraceInfo{ID: tr.ID().String(), Stages: tr.Stages()}
	}
	st.rows = appendRows(st.rows[:0], ans.Results)
	return response{shape: shapeRows, rows: st.rows, meta: answerMeta(&ans), tr: tr}, nil
}

// appendRows appends an engine answer's results in their wire form.
func appendRows(dst []protocol.Result, results []core.Result) []protocol.Result {
	for i := range results {
		dst = append(dst, protocol.Result{Key: results[i].Key, Distance: results[i].Distance})
	}
	return dst
}

// answerMeta is the wire form of an engine answer's flags and trace.
func answerMeta(ans *core.Answer) protocol.ResponseMeta {
	meta := protocol.ResponseMeta{Degraded: ans.Degraded, Mode: ans.FilterMode, Cache: ans.Cache}
	if ans.Trace != nil {
		meta.TraceID = ans.Trace.ID
		for _, st := range ans.Trace.Stages {
			meta.Stages = append(meta.Stages, protocol.StageTiming{Name: st.Name, Dur: int64(st.Dur)})
		}
	}
	return meta
}

// statsPairs assembles the STATS response: structural engine statistics,
// headline pipeline counters, result-cache health and serving-protocol
// health.
func (s *Server) statsPairs() map[string]string {
	met := s.metrics()
	st := s.Engine.Stat()
	pairs := map[string]string{
		"objects":          strconv.Itoa(st.Objects),
		"deleted":          strconv.Itoa(st.Deleted),
		"segments":         strconv.Itoa(st.Segments),
		"sketch_bits":      strconv.Itoa(st.SketchBits),
		"sketch_bytes":     strconv.Itoa(st.SketchBytes),
		"indexed_segments": strconv.Itoa(st.IndexedSegments),
		"hindex_tables":    strconv.Itoa(st.HIndexTables),
		"hindex_load":      strconv.FormatFloat(st.HIndexLoad, 'f', 3, 64),
	}
	// Telemetry extension: headline pipeline counters and latency
	// percentiles ride along with the structural statistics — the result
	// cache's hit/miss/invalidation health included.
	reg := s.Engine.Telemetry()
	for flat, name := range map[string]string{
		"queries_total":                  "ferret_query_total",
		"query_errors_total":             "ferret_query_errors_total",
		"ingests_total":                  "ferret_ingest_total",
		"deletes_total":                  "ferret_delete_total",
		"inflight_queries":               "ferret_inflight_queries",
		"candidates_total":               "ferret_filter_candidates_total",
		"query_p50_seconds":              "ferret_query_seconds_p50",
		"query_p99_seconds":              "ferret_query_seconds_p99",
		"result_cache_hits_total":        "ferret_result_cache_hits_total",
		"result_cache_misses_total":      "ferret_result_cache_misses_total",
		"result_cache_invalidated_total": "ferret_result_cache_invalidated_total",
		"result_cache_evictions_total":   "ferret_result_cache_evictions_total",
		"result_cache_entries":           "ferret_result_cache_entries",
		"result_cache_bytes":             "ferret_result_cache_bytes",
	} {
		pairs[flat] = formatMetric(reg.Value(name))
	}
	// The index's candidate-reduction ratio: rows verified per row an
	// unindexed scan would have streamed, over all served probes.
	if base := reg.Value("ferret_hindex_baseline_rows_total"); base > 0 {
		pairs["hindex_candidate_ratio"] = formatMetric(reg.Value("ferret_hindex_candidates_total") / base)
	}
	// Serving-protocol health: binary-protocol adoption and wire-buffer
	// pool effectiveness.
	met.refreshWireBuf()
	pairs["v2_connections"] = strconv.FormatInt(met.v2Conns.Value(), 10)
	pairs["v2_upgrades_total"] = strconv.FormatUint(met.v2Upgrades.Value(), 10)
	pairs["wire_buf_gets_total"] = strconv.FormatInt(wireBufGets.Load(), 10)
	pairs["wire_buf_misses_total"] = strconv.FormatInt(wireBufMisses.Load(), 10)
	pairs["wire_buf_puts_total"] = strconv.FormatInt(wireBufPuts.Load(), 10)
	return pairs
}

// tracer returns the engine's tracer, or the error every trace-dependent
// request answers with when tracing is off.
func (s *Server) tracer() (*trace.Tracer, error) {
	if t := s.Engine.Tracer(); t != nil {
		return t, nil
	}
	return nil, errors.New("tracing disabled on this server")
}

// armTrace arms the connection's trace recording buffer when the request
// asked for tracing. trace=on|1|new mints a fresh trace ID; any other value
// is a propagated trace ID to adopt, so a caller that spans several systems
// can stitch the query into its own trace. Traced requests are always
// retained (forced), and the protocol parse — timed from start, taken before
// the request was decoded — is backfilled as the first span. Returns nil
// with no error for untraced requests.
func (s *Server) armTrace(st *connState, start time.Time) (*trace.Active, error) {
	v := st.req.Trace
	if v == "" {
		return nil, nil
	}
	tracer, err := s.tracer()
	if err != nil {
		return nil, err
	}
	var id trace.TraceID
	switch v {
	case protocol.TraceOn, "1", "new":
		// Fresh ID (BeginWith allocates one for 0).
	default:
		if id, err = trace.ParseTraceID(v); err != nil {
			return nil, err
		}
	}
	tracer.BeginWith(&st.tr, strings.ToLower(st.req.Cmd), id, true)
	st.tr.Record("parse", start, time.Since(start))
	return &st.tr, nil
}

// tracePairs assembles a TRACE answer from the tracer's retained rings as
// compact one-line renderings: one retained trace by ID (key trace0), or the
// newest-first slow<i> (slow-query log) and recent<i> (sampled ring) lists,
// each capped at n (default 10).
func (s *Server) tracePairs(n int, slowOnly bool, id string) (map[string]string, error) {
	tracer, err := s.tracer()
	if err != nil {
		return nil, err
	}
	if id != "" {
		tid, err := trace.ParseTraceID(id)
		if err != nil {
			return nil, err
		}
		tr := tracer.Find(tid)
		if tr == nil {
			return nil, fmt.Errorf("trace %s not retained", tid)
		}
		return map[string]string{"trace0": tr.Compact()}, nil
	}
	if n <= 0 {
		n = 10
	}
	pairs := map[string]string{}
	add := func(prefix string, traces []*trace.Trace) {
		for i, tr := range traces {
			if i >= n {
				break
			}
			pairs[prefix+strconv.Itoa(i)] = tr.Compact()
		}
	}
	add("slow", tracer.Slow())
	if !slowOnly {
		add("recent", tracer.Recent())
	}
	return pairs, nil
}

// runBatch answers one batch of keys through Engine.SearchBatch.
// Per-key failures (unknown key, missing feature vectors) are reported
// inside their group without failing the rest.
func (s *Server) runBatch(ctx context.Context, keys [][]byte, opt core.QueryOptions) []protocol.BatchItem {
	n := len(keys)
	items := make([]protocol.BatchItem, n)
	queries := make([]object.Object, 0, n)
	slots := make([]int, 0, n) // queries[j] answers items[slots[j]]
	for i, key := range keys {
		id, err := s.lookup(key)
		if err != nil {
			items[i].Err = err.Error()
			continue
		}
		o, ok := s.Engine.Meta().GetObject(id)
		if !ok {
			// Sketch-only store: no feature vectors to search with. Answer
			// this key through the per-query sketch path instead.
			ans, err := s.Engine.SearchByID(ctx, id, opt)
			if err != nil {
				items[i].Err = err.Error()
				continue
			}
			items[i] = answerItem(ans)
			continue
		}
		queries = append(queries, o)
		slots = append(slots, i)
	}
	answers, errs := s.Engine.SearchBatch(ctx, queries, opt)
	for j, slot := range slots {
		if errs[j] != nil {
			items[slot].Err = errs[j].Error()
			continue
		}
		items[slot] = answerItem(answers[j])
	}
	return items
}

// answerItem converts one engine answer into a batch response group.
func answerItem(ans core.Answer) protocol.BatchItem {
	return protocol.BatchItem{
		Results: appendRows(make([]protocol.Result, 0, len(ans.Results)), ans.Results),
		Meta:    answerMeta(&ans),
	}
}

// formatMetric renders a telemetry value for a protocol response: integers
// without a decimal point, fractional values in compact float form. The
// integerness test is the explicit math.Trunc idiom guarded to the int64
// range — the previous v == float64(int64(v)) form hit the spec's
// implementation-defined behavior for conversions of out-of-range floats.
func formatMetric(v float64) string {
	if math.Trunc(v) == v && math.Abs(v) < 1<<62 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// queryOptions validates the request's query options and translates them
// into engine options, resolving the attribute restriction into an ID set.
func (s *Server) queryOptions(req *protocol.Command) (core.QueryOptions, error) {
	opt := core.QueryOptions{K: s.DefaultK, Budget: s.QueryBudget}
	if req.K > maxK {
		return opt, fmt.Errorf("bad k %d (1..%d)", req.K, maxK)
	}
	if req.K > 0 {
		opt.K = req.K
	}
	var ok bool
	if opt.Mode, ok = parseMode(req.Mode); !ok {
		return opt, fmt.Errorf("unknown mode %q", req.Mode)
	}
	// Per-query time budget: the server's configured budget, optionally
	// tightened (never loosened) by the client.
	if req.Budget > 0 && (s.QueryBudget <= 0 || req.Budget < s.QueryBudget) {
		opt.Budget = req.Budget
	}
	// Attribute restriction: run the attribute search first and restrict
	// the similarity scan to its matches (paper §4.1.2).
	if len(req.Keywords) > 0 || len(req.Attrs) > 0 {
		opt.Restrict = map[object.ID]bool{}
		for _, id := range s.Engine.Attrs().Search(attr.Query{Keywords: req.Keywords, Equal: attr.Attrs(req.Attrs)}) {
			opt.Restrict[id] = true
		}
	}
	return opt, nil
}

// parseMode maps a wire mode name to the engine mode, case-insensitively,
// without converting it to a heap string: the switch's string(b) conversions
// compile to allocation-free comparisons, and only a name that matches
// nothing as sent pays for lower-casing.
func parseMode(b []byte) (core.Mode, bool) {
	switch string(b) {
	case "", "filtering", "filter":
		return core.Filtering, true
	case "bruteforce", "original":
		return core.BruteForceOriginal, true
	case "sketch", "bruteforcesketch":
		return core.BruteForceSketch, true
	}
	if lower := bytes.ToLower(b); !bytes.Equal(lower, b) {
		return parseMode(lower)
	}
	return 0, false
}

// reweight scales the query object's segment weights by the comma-separated
// factors in spec (the command-line interface's "adjusted weights for
// feature vectors", §4.1.4). Fewer factors than segments scale a prefix;
// weights are renormalized afterwards.
func reweight(o *object.Object, spec string) error {
	factors := strings.Split(spec, ",")
	if len(factors) > len(o.Segments) {
		return fmt.Errorf("segweights has %d factors for %d segments", len(factors), len(o.Segments))
	}
	for i, f := range factors {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 32)
		if err != nil || v < 0 {
			return fmt.Errorf("bad segment weight factor %q", f)
		}
		o.Segments[i].Weight *= float32(v)
	}
	o.NormalizeWeights()
	if err := o.Validate(); err != nil {
		return fmt.Errorf("adjusted weights produce invalid object: %v", err)
	}
	return nil
}
