package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// Client is a command-line-protocol client used by the query tool, the web
// interface and the performance evaluation tool. It is safe for concurrent
// use (requests are serialized on the single connection).
type Client struct {
	mu      sync.Mutex
	conn    io.ReadWriteCloser
	rd      *bufio.Reader
	timeout time.Duration

	// v2 is set once the connection upgraded to the binary protocol
	// (UpgradeV2). wbuf/fbuf are the frame encode scratch and read buffer,
	// reused across requests under mu.
	v2   bool
	wbuf []byte
	fbuf []byte
}

// deadliner is the subset of net.Conn needed for per-request deadlines;
// non-network connections (pipes in tests) simply don't get them.
type deadliner interface {
	SetDeadline(t time.Time) error
}

// Dial connects to a Ferret server at addr (host:port).
func Dial(addr string) (*Client, error) { return DialTimeout(addr, 0) }

// DialTimeout is Dial with a connection-establishment timeout (0 = none).
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{conn: conn, rd: bufio.NewReader(conn)}
}

// SetTimeout bounds each subsequent request round trip (write + response
// read). Zero (the default) means no deadline. It only takes effect on
// connections that support deadlines (net.Conn).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ProtoV2 reports whether the connection upgraded to the binary protocol.
func (c *Client) ProtoV2() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v2
}

// UpgradeV2 negotiates the binary protocol v2 on the established
// connection. On success all subsequent requests use binary frames (see
// Command.AppendFrame for which commands get compact encodings). A
// *ServerError means the server doesn't speak v2 — the connection remains
// usable on the text protocol.
func (c *Client) UpgradeV2() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.v2 {
		return nil
	}
	c.deadline()
	if _, err := io.WriteString(c.conn, HelloV2+"\n"); err != nil {
		return err
	}
	rep, err := readTextReply(c.rd, StatusPairs)
	if err != nil {
		return err
	}
	if rep.pairs["proto"] != HelloV2Value {
		return fmt.Errorf("protocol: server accepted HELLO but did not confirm proto=%s", HelloV2Value)
	}
	c.v2 = true
	return nil
}

// TryUpgradeV2 attempts UpgradeV2 and reports whether the connection is now
// binary; a server that doesn't speak v2 leaves the client on the text
// protocol without error. Transport failures are still returned.
func (c *Client) TryUpgradeV2() (bool, error) {
	err := c.UpgradeV2()
	var se *ServerError
	if errors.As(err, &se) {
		return false, nil
	}
	return err == nil, err
}

// deadline arms (or clears) the per-request deadline. Caller holds mu.
func (c *Client) deadline() {
	if d, ok := c.conn.(deadliner); ok {
		if c.timeout > 0 {
			d.SetDeadline(time.Now().Add(c.timeout))
		} else {
			d.SetDeadline(time.Time{})
		}
	}
}

// reply is one decoded response, whichever framing carried it: the payload
// shape the command answers with is set, the others are zero.
type reply struct {
	results []Result
	meta    ResponseMeta
	pairs   map[string]string
	batch   []BatchItem
}

// replyStatus names the payload shape a command answers with by its v2
// status code; the text framing has the same three shapes but does not mark
// them, so the command decides how the lines parse.
func replyStatus(cmd string) byte {
	switch cmd {
	case CmdQuery, CmdQueryFile, CmdSearch:
		return StatusResults
	case CmdBatchQuery:
		return StatusBatch
	}
	return StatusPairs
}

// do sends one command in the connection's framing — a text line, or once
// upgraded the v2 frame Command.AppendFrame picks — and decodes the response.
// A request-level failure is a *ServerError.
func (c *Client) do(cmd *Command) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline()
	want := replyStatus(cmd.Cmd)
	if !c.v2 {
		if _, err := io.WriteString(c.conn, cmd.Line()+"\n"); err != nil {
			return reply{}, err
		}
		return readTextReply(c.rd, want)
	}
	var op byte
	op, c.wbuf = cmd.AppendFrame(c.wbuf[:0])
	if err := WriteFrame(c.conn, op, c.wbuf); err != nil {
		return reply{}, err
	}
	// The payload aliases the client's frame buffer, valid until the next
	// request: everything is decoded out of it before mu is released.
	status, payload, fbuf, err := ReadFrame(c.rd, c.fbuf)
	c.fbuf = fbuf
	if err != nil {
		return reply{}, err
	}
	var rep reply
	switch status {
	case StatusError:
		return rep, DecodeError(payload)
	case StatusText:
		return readTextReply(bufio.NewReader(bytes.NewReader(payload)), want)
	case want:
	default:
		return rep, fmt.Errorf("protocol: unexpected response status 0x%02x", status)
	}
	switch want {
	case StatusResults:
		rep.results, rep.meta, err = DecodeResults(payload)
	case StatusBatch:
		rep.batch, err = DecodeBatch(payload)
	default:
		rep.pairs, err = DecodePairs(payload)
	}
	return rep, err
}

// readTextReply reads one text response and parses its payload lines into
// the shape want names.
func readTextReply(rd *bufio.Reader, want byte) (reply, error) {
	lines, meta, err := ReadResponseMeta(rd)
	rep := reply{meta: meta}
	if err != nil {
		return rep, err
	}
	switch want {
	case StatusResults:
		rep.results = make([]Result, len(lines))
		for i, line := range lines {
			if rep.results[i], err = ParseResultLine(line); err != nil {
				return rep, err
			}
		}
	case StatusBatch:
		rep.batch, err = ParseBatch(lines)
	default:
		rep.pairs, err = ParsePairs(lines)
	}
	return rep, err
}

// pairs runs a command that answers with name → value pairs.
func (c *Client) pairs(cmd *Command) (map[string]string, error) {
	rep, err := c.do(cmd)
	return rep.pairs, err
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.do(&Command{Cmd: CmdPing})
	return err
}

// Count returns the number of objects in the server's database.
func (c *Client) Count() (int, error) {
	pairs, err := c.pairs(&Command{Cmd: CmdCount})
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(pairs["count"])
}

// QueryParams carries the tunable query parameters of the command-line
// interface: result count, search mode, filter settings and attribute
// restrictions.
type QueryParams struct {
	// K is the number of results (server default when 0).
	K int
	// Mode is "filtering", "bruteforce" or "sketch" ("" = filtering).
	Mode string
	// Keywords restricts the similarity search to objects matching all
	// keywords (attribute + similarity combination, paper §4.1.2).
	Keywords []string
	// Attrs restricts to exact attribute matches.
	Attrs map[string]string
	// SegWeights optionally scales the query object's segment weights (the
	// "adjusted weights for feature vectors" of §4.1.4); factor i applies
	// to segment i.
	SegWeights []float64
	// Budget, when positive, requests a per-query time budget: if it
	// expires mid-rank the server answers with its best results so far,
	// flagged degraded. Servers cap it at their configured maximum.
	Budget time.Duration
	// Trace asks the server to trace the query: the response's meta then
	// carries the retained trace's ID and the per-stage timing breakdown.
	Trace bool
}

// fill sets c's query options from the parameters.
func (p *QueryParams) fill(c *Command) {
	// A non-positive K or Budget asks for the server's default.
	c.K, c.Mode, c.Budget = max(p.K, 0), []byte(p.Mode), max(p.Budget, 0)
	c.Keywords, c.Attrs = p.Keywords, p.Attrs
	if p.Trace {
		c.Trace = TraceOn
	}
	for i, w := range p.SegWeights {
		if i > 0 {
			c.SegWeights += ","
		}
		c.SegWeights += strconv.FormatFloat(w, 'g', -1, 64)
	}
}

// Query runs a similarity query using an already-ingested object.
func (c *Client) Query(key string, p QueryParams) ([]Result, error) {
	results, _, err := c.QueryMeta(key, p)
	return results, err
}

// QueryMeta is Query exposing the response flags (degradation, cache).
func (c *Client) QueryMeta(key string, p QueryParams) ([]Result, ResponseMeta, error) {
	cmd := Command{Cmd: CmdQuery, Key: []byte(key)}
	p.fill(&cmd)
	rep, err := c.do(&cmd)
	return rep.results, rep.meta, err
}

// BatchQuery runs similarity queries for several already-ingested objects as
// one request: the server answers each key as its own query, several at a
// time. The returned slice is parallel to keys; per-query failures are reported in
// BatchItem.Err without failing their siblings.
func (c *Client) BatchQuery(keys []string, p QueryParams) ([]BatchItem, error) {
	cmd := Command{Cmd: CmdBatchQuery}
	p.fill(&cmd)
	for _, key := range keys {
		cmd.Keys = append(cmd.Keys, []byte(key))
	}
	rep, err := c.do(&cmd)
	if err != nil {
		return nil, err
	}
	if len(rep.batch) != len(keys) {
		return nil, fmt.Errorf("protocol: BATCHQUERY returned %d groups for %d keys", len(rep.batch), len(keys))
	}
	return rep.batch, nil
}

// Traces fetches retained query traces, one compact rendering per line,
// keyed recent<i>/slow<i> in newest-first order. slowOnly restricts the
// answer to the slow-query log; n caps each list (server default when 0).
func (c *Client) Traces(n int, slowOnly bool) (map[string]string, error) {
	return c.pairs(&Command{Cmd: CmdTrace, N: n, Slow: slowOnly})
}

// QueryFile runs a similarity query on a data file the server extracts with
// its plug-in.
func (c *Client) QueryFile(path string, p QueryParams) ([]Result, error) {
	results, _, err := c.QueryFileMeta(path, p)
	return results, err
}

// QueryFileMeta is QueryFile exposing the response flags (degradation).
func (c *Client) QueryFileMeta(path string, p QueryParams) ([]Result, ResponseMeta, error) {
	cmd := Command{Cmd: CmdQueryFile, Path: path}
	p.fill(&cmd)
	rep, err := c.do(&cmd)
	return rep.results, rep.meta, err
}

// AddFile ingests a data file through the server's plug-in extractor,
// attaching the given attributes.
func (c *Client) AddFile(path string, attrs map[string]string) error {
	_, err := c.do(&Command{Cmd: CmdAddFile, Path: path, Attrs: attrs})
	return err
}

// Search runs an attribute-based search; results carry distance 0.
func (c *Client) Search(keywords []string, attrs map[string]string) ([]Result, error) {
	rep, err := c.do(&Command{Cmd: CmdSearch, Keywords: keywords, Attrs: attrs})
	return rep.results, err
}

// Info returns the stored attributes of an object.
func (c *Client) Info(key string) (map[string]string, error) {
	return c.pairs(&Command{Cmd: CmdInfo, Key: []byte(key)})
}

// Stats returns the server engine's statistics as name → value pairs.
func (c *Client) Stats() (map[string]string, error) {
	return c.pairs(&Command{Cmd: CmdStats})
}

// Telemetry returns the server's runtime telemetry — every registered
// counter, gauge and histogram summary (count/sum/p50/p90/p99) as flat
// name → value pairs.
func (c *Client) Telemetry() (map[string]string, error) {
	return c.pairs(&Command{Cmd: CmdTelemetry})
}

// Delete removes an object by key.
func (c *Client) Delete(key string) error {
	_, err := c.do(&Command{Cmd: CmdDelete, Key: []byte(key)})
	return err
}
