// Package protocol implements the Ferret toolkit's command-line query
// interface (paper §4.1.4): a line-oriented text protocol that lets web
// clients, scripts and the performance evaluation tool talk to a running
// search server and experiment with query parameters without restarting it.
//
// Requests are single lines:
//
//	COMMAND key=value key="quoted value" ...
//
// Responses are either
//
//	OK <n> [flags...]
//	<n result lines: "<key> <distance>" or "<name>=<quoted value>">
//
// or
//
//	ERR <quoted message>
//
// Flags after the count annotate the whole response. Defined flags:
//
//	degraded          the query's time budget expired and the result tail
//	                  is ordered by sketch-estimated distance
//	trace=<id>        the 16-hex ID of the query's retained trace (QUERY
//	                  and BATCHQUERY requests carrying a trace= argument;
//	                  look it up with TRACE id=<id> or /debug/traces)
//	stages=<a:ns,..>  per-stage wall-clock breakdown of a traced query:
//	                  comma-separated name:nanoseconds pairs
//	cache=<hit|miss>  whether the server's result cache served the answer
//	                  (absent when the cache is disabled or not consulted)
//
// Unknown flags are ignored by clients, so flags are forward-compatible.
//
// A client may upgrade an established connection to the binary protocol v2
// (see binary.go) by sending "HELLO proto=v2": a v2-capable server answers
// with an OK pairs response carrying proto=v2 and both sides switch to
// length-prefixed binary frames; older servers answer ERR and the
// connection stays on the text protocol.
package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Request is one parsed command line.
type Request struct {
	Cmd  string
	Args map[string]string
}

// Commands understood by the server.
const (
	CmdPing       = "PING"       // liveness check
	CmdCount      = "COUNT"      // number of ingested objects
	CmdQuery      = "QUERY"      // similarity query by existing object key
	CmdBatchQuery = "BATCHQUERY" // batched similarity queries by existing object keys
	CmdQueryFile  = "QUERYFILE"  // similarity query by extracting a file
	CmdAddFile    = "ADDFILE"    // ingest a file through the plug-in extractor
	CmdSearch     = "SEARCH"     // attribute-based search
	CmdInfo       = "INFO"       // attributes of one object
	CmdStats      = "STATS"      // engine statistics
	CmdTelemetry  = "TELEMETRY"  // runtime telemetry: counters, gauges, latency percentiles
	CmdTrace      = "TRACE"      // retained query traces: recent ring and slow-query log
	CmdDelete     = "DELETE"     // remove an object by key
)

// Commands lists every command (the server keeps a request counter for each).
var Commands = []string{CmdPing, CmdCount, CmdQuery, CmdBatchQuery, CmdQueryFile, CmdAddFile,
	CmdSearch, CmdInfo, CmdStats, CmdTelemetry, CmdTrace, CmdDelete}

// ParseRequest parses a command line. Values may be bare (no spaces) or
// Go-quoted.
func ParseRequest(line string) (Request, error) {
	fields, err := splitQuoted(line)
	if err != nil {
		return Request{}, err
	}
	if len(fields) == 0 || fields[0] == "" {
		return Request{}, errors.New("protocol: empty request")
	}
	req := Request{Cmd: strings.ToUpper(fields[0]), Args: map[string]string{}}
	for _, f := range fields[1:] {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return Request{}, fmt.Errorf("protocol: malformed argument %q", f)
		}
		req.Args[f[:eq]] = f[eq+1:]
	}
	return req, nil
}

// splitQuoted splits on spaces, honoring Go-style double quotes within
// tokens (e.g. path="a b.jpg").
func splitQuoted(line string) ([]string, error) {
	var out []string
	i := 0
	n := len(line)
	for i < n {
		for i < n && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= n {
			break
		}
		var tok strings.Builder
		for i < n && line[i] != ' ' && line[i] != '\t' {
			if line[i] == '"' {
				// Consume a quoted section.
				j := i + 1
				for j < n {
					if line[j] == '\\' {
						j += 2
						continue
					}
					if line[j] == '"' {
						break
					}
					j++
				}
				if j >= n {
					return nil, errors.New("protocol: unterminated quote")
				}
				unq, err := strconv.Unquote(line[i : j+1])
				if err != nil {
					return nil, fmt.Errorf("protocol: bad quoting: %w", err)
				}
				tok.WriteString(unq)
				i = j + 1
				continue
			}
			tok.WriteByte(line[i])
			i++
		}
		out = append(out, tok.String())
	}
	return out, nil
}

// FormatRequest renders a request as a protocol line (arguments sorted for
// determinism, every token quoted when needed).
func FormatRequest(req Request) string {
	b := AppendMaybeQuote(nil, strings.ToUpper(req.Cmd))
	for _, k := range sortedKeys(req.Args) {
		b = append(AppendMaybeQuote(append(b, ' '), k), '=')
		b = AppendMaybeQuote(b, req.Args[k])
	}
	return string(b)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AppendMaybeQuote appends v to b under the protocol's quoting rule
// (quoted exactly when it is empty or contains separators) — the append
// form used by pooled response encoders.
func AppendMaybeQuote(b []byte, v string) []byte {
	if v == "" || strings.ContainsAny(v, " \t\"\\\n") {
		return strconv.AppendQuote(b, v)
	}
	return append(b, v...)
}

// Result is one line of a similarity or attribute search response.
type Result struct {
	Key      string
	Distance float64
}

// StageTiming is one entry of a traced response's per-stage breakdown.
type StageTiming struct {
	Name string
	// Dur is the stage's wall-clock time in nanoseconds.
	Dur int64
}

// ResponseMeta carries the flags of an OK head line.
type ResponseMeta struct {
	// Degraded reports the server answered within its time budget by
	// degrading: the head of the results is exactly ranked, the tail is in
	// sketch-estimated-distance order.
	Degraded bool
	// Mode reports which machinery served the query's filtering unit:
	// "index" (the Hamming index), "scan" (the arena scan), "mixed" (some
	// probes fell back), or "" (not a filtering query, or an old server).
	Mode string
	// TraceID is the retained trace's 16-hex ID when the request asked for
	// tracing ("" otherwise).
	TraceID string
	// Stages is the traced query's per-stage timing breakdown.
	Stages []StageTiming
	// Cache is "hit" or "miss" when the server's result cache was
	// consulted, "" otherwise (cache disabled, uncacheable query, or an
	// old server).
	Cache string
}

// appendFlags appends the head-line flag tokens (each with a leading space).
func (m ResponseMeta) appendFlags(b []byte) []byte {
	if m.Degraded {
		b = append(b, " degraded"...)
	}
	if m.Mode != "" {
		b = append(append(b, " mode="...), m.Mode...)
	}
	if m.TraceID != "" {
		b = append(append(b, " trace="...), m.TraceID...)
	}
	if m.Cache != "" {
		b = append(append(b, " cache="...), m.Cache...)
	}
	for i, st := range m.Stages {
		if i == 0 {
			b = append(b, " stages="...)
		} else {
			b = append(b, ',')
		}
		b = append(append(b, st.Name...), ':')
		b = strconv.AppendInt(b, st.Dur, 10)
	}
	return b
}

// parseFlag folds one head-line (or batch group header) flag token into the
// meta. Unknown tokens are ignored for forward compatibility.
func (m *ResponseMeta) parseFlag(f string) {
	switch {
	case f == "degraded":
		m.Degraded = true
	case strings.HasPrefix(f, "mode="):
		m.Mode = f[len("mode="):]
	case strings.HasPrefix(f, "trace="):
		m.TraceID = f[len("trace="):]
	case strings.HasPrefix(f, "cache="):
		m.Cache = f[len("cache="):]
	case strings.HasPrefix(f, "stages="):
		for _, pair := range strings.Split(f[len("stages="):], ",") {
			colon := strings.LastIndexByte(pair, ':')
			if colon <= 0 {
				continue
			}
			ns, err := strconv.ParseInt(pair[colon+1:], 10, 64)
			if err != nil {
				continue
			}
			m.Stages = append(m.Stages, StageTiming{Name: pair[:colon], Dur: ns})
		}
	}
}

// The Append* functions are the text response encoders: each appends one
// complete response to b, so the server encodes into a pooled buffer and
// writes once. The Write* forms are the same encodings written to w.

// AppendResults appends a successful response of result lines with its
// head-line flags.
func AppendResults(b []byte, results []Result, meta ResponseMeta) []byte {
	b = strconv.AppendInt(append(b, "OK "...), int64(len(results)), 10)
	b = append(meta.appendFlags(b), '\n')
	return appendResultLines(b, results)
}

func appendResultLines(b []byte, results []Result) []byte {
	for _, r := range results {
		b = append(AppendMaybeQuote(b, r.Key), ' ')
		b = append(strconv.AppendFloat(b, r.Distance, 'g', -1, 64), '\n')
	}
	return b
}

// AppendPairs appends a successful response of name=value lines, sorted by
// name. A nil map is the bare "OK 0".
func AppendPairs(b []byte, pairs map[string]string) []byte {
	b = append(strconv.AppendInt(append(b, "OK "...), int64(len(pairs)), 10), '\n')
	for _, k := range sortedKeys(pairs) {
		b = append(append(b, k...), '=')
		b = append(AppendMaybeQuote(b, pairs[k]), '\n')
	}
	return b
}

// AppendError appends an error response.
func AppendError(b []byte, msg string) []byte {
	return append(strconv.AppendQuote(append(b, "ERR "...), msg), '\n')
}

// WriteError writes an error response.
func WriteError(w io.Writer, err error) error {
	_, werr := w.Write(AppendError(nil, err.Error()))
	return werr
}

// ReadResponseMeta reads a response along with its head-line flags. Unknown
// flags are ignored for forward compatibility.
func ReadResponseMeta(r *bufio.Reader) ([]string, ResponseMeta, error) {
	var meta ResponseMeta
	head, err := r.ReadString('\n')
	if err != nil {
		return nil, meta, err
	}
	head = strings.TrimRight(head, "\r\n")
	switch {
	case strings.HasPrefix(head, "OK "):
		fields := strings.Fields(head)
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 || n > 10_000_000 {
			return nil, meta, fmt.Errorf("protocol: bad OK count %q", head)
		}
		for _, f := range fields[2:] {
			meta.parseFlag(f)
		}
		lines := make([]string, 0, n)
		for i := 0; i < n; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				return nil, meta, fmt.Errorf("protocol: truncated response: %w", err)
			}
			lines = append(lines, strings.TrimRight(line, "\r\n"))
		}
		return lines, meta, nil
	case strings.HasPrefix(head, "ERR "):
		msg, err := strconv.Unquote(strings.TrimPrefix(head, "ERR "))
		if err != nil {
			msg = strings.TrimPrefix(head, "ERR ")
		}
		return nil, meta, &ServerError{Msg: msg}
	default:
		return nil, meta, fmt.Errorf("protocol: unexpected response line %q", head)
	}
}

// BatchItem is one query's outcome within a BATCHQUERY response: its result
// lines and flags, or a per-query error message. A failed query does not
// fail its batch siblings.
type BatchItem struct {
	Results []Result
	Meta    ResponseMeta
	// Err is the server's message when this query failed; empty on success.
	Err string
}

// AppendBatch appends a BATCHQUERY response. The payload is framed inside a
// normal OK response so generic clients can still consume it line-counted:
//
//	OK <total> batch
//	q <i> <ni> [degraded]     (group header, then ni result lines)
//	q <i> err <quoted msg>    (failed query: header only)
//
// where total counts every payload line (group headers included).
func AppendBatch(b []byte, items []BatchItem) []byte {
	total := 0
	for _, it := range items {
		total += 1 + len(it.Results)
	}
	b = append(strconv.AppendInt(append(b, "OK "...), int64(total), 10), " batch\n"...)
	for i, it := range items {
		b = append(strconv.AppendInt(append(b, "q "...), int64(i), 10), ' ')
		if it.Err != "" {
			b = append(strconv.AppendQuote(append(b, "err "...), it.Err), '\n')
			continue
		}
		b = strconv.AppendInt(b, int64(len(it.Results)), 10)
		b = append(it.Meta.appendFlags(b), '\n')
		b = appendResultLines(b, it.Results)
	}
	return b
}

// ParseBatch reassembles the per-query groups from a BATCHQUERY response's
// payload lines (as returned by ReadResponseMeta).
func ParseBatch(lines []string) ([]BatchItem, error) {
	var items []BatchItem
	i := 0
	for i < len(lines) {
		fields, err := splitQuoted(lines[i])
		if err != nil || len(fields) < 3 || fields[0] != "q" {
			return nil, fmt.Errorf("protocol: malformed batch group header %q", lines[i])
		}
		slot, err := strconv.Atoi(fields[1])
		if err != nil || slot != len(items) {
			return nil, fmt.Errorf("protocol: batch group %q out of order", lines[i])
		}
		i++
		var it BatchItem
		if fields[2] == "err" {
			it.Err = strings.Join(fields[3:], " ")
			if it.Err == "" {
				it.Err = "unknown error"
			}
			items = append(items, it)
			continue
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 || i+n > len(lines) {
			return nil, fmt.Errorf("protocol: bad batch group count in %q", lines[i-1])
		}
		for _, f := range fields[3:] {
			it.Meta.parseFlag(f)
		}
		for ; n > 0; n-- {
			r, err := ParseResultLine(lines[i])
			if err != nil {
				return nil, err
			}
			it.Results = append(it.Results, r)
			i++
		}
		items = append(items, it)
	}
	return items, nil
}

// ServerError is an error reported by the remote server (as opposed to a
// transport failure).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }

// ParseResultLine parses one "<key> <distance>" response line.
func ParseResultLine(line string) (Result, error) {
	fields, err := splitQuoted(line)
	if err != nil {
		return Result{}, err
	}
	if len(fields) != 2 {
		return Result{}, fmt.Errorf("protocol: malformed result line %q", line)
	}
	d, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Result{}, fmt.Errorf("protocol: bad distance in %q: %w", line, err)
	}
	return Result{Key: fields[0], Distance: d}, nil
}

// ParsePairs parses the "<name>=<value>" payload lines of a pairs response
// (COUNT, INFO, STATS, TELEMETRY, TRACE), unquoting quoted values.
func ParsePairs(lines []string) (map[string]string, error) {
	out := make(map[string]string, len(lines))
	for _, line := range lines {
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("protocol: malformed pair line %q", line)
		}
		val := line[eq+1:]
		if strings.HasPrefix(val, `"`) {
			if unq, err := strconv.Unquote(val); err == nil {
				val = unq
			}
		}
		out[line[:eq]] = val
	}
	return out, nil
}
