package protocol

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Command is one request, independent of the framing that carried it: the
// text-line decoder and the v2 frame decoder both produce it, the server's
// one handler table consumes it, and the client builds one per method and
// lets the connection's framing encode it. A field a command does not use is
// zero.
//
// The byte-slice fields alias the decoder's input (for a v2 frame, the
// connection's read buffer), so a decoded Command is valid only until the
// next read — which is what lets a v2 QUERY resolve its key without a copy.
type Command struct {
	Cmd  string   // upper-case command name (CmdQuery, ...)
	Key  []byte   // QUERY, DELETE, INFO: the object key
	Keys [][]byte // BATCHQUERY: the object keys
	Path string   // QUERYFILE, ADDFILE: the data file to extract

	// Query options (QUERY, BATCHQUERY, QUERYFILE).
	K          int           // result count; 0 = the server's default
	Mode       []byte        // search mode name; empty = filtering
	Budget     time.Duration // per-query time budget; 0 = none requested
	Trace      string        // "" untraced, TraceOn, or a 16-hex trace ID to adopt
	SegWeights string        // comma-separated segment weight factors
	// Keywords and Attrs restrict a similarity query to the objects an
	// attribute search matches; for SEARCH they are the search itself, and
	// for ADDFILE Attrs are the attributes to store.
	Keywords []string
	Attrs    map[string]string

	// TRACE arguments.
	N    int    // cap on each listing; 0 = the server's default
	Slow bool   // slow-query log only
	ID   string // one retained trace by ID
}

// TraceOn is the Trace value asking for a fresh trace ID — the only trace
// request a v2 frame's flag bit can carry.
const TraceOn = "on"

// DecodeLine decodes one text request line into c, reusing c's key-slice
// capacity. Argument names are not tied to commands: every recognized name
// fills its field and unknown names are ignored, as the text protocol always
// has. Numeric arguments are checked here (they have no other
// representation in a Command); everything else is the handler's to
// validate, once for both framings.
func DecodeLine(c *Command, line string) error {
	req, err := ParseRequest(line)
	*c = Command{Cmd: req.Cmd, Keys: c.Keys[:0]}
	if err != nil {
		return err
	}
	args := req.Args
	if v, ok := args["key"]; ok {
		c.Key = []byte(v)
	}
	c.Path, c.Mode = args["path"], []byte(args["mode"])
	c.Trace, c.SegWeights, c.ID = args["trace"], args["segweights"], args["id"]
	c.Slow = args["slow"] != ""
	if v := args["keywords"]; v != "" {
		c.Keywords = strings.Split(v, ",")
	}
	if v := args["k"]; v != "" {
		if c.K, err = strconv.Atoi(v); err != nil || c.K <= 0 {
			return fmt.Errorf("bad k %q", v)
		}
	}
	if v := args["budget"]; v != "" {
		if c.Budget, err = time.ParseDuration(v); err != nil || c.Budget <= 0 {
			return fmt.Errorf("bad budget %q", v)
		}
	}
	if v := args["n"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad n %q", v)
		}
		if c.Cmd != CmdBatchQuery {
			c.N = n
		} else {
			// BATCHQUERY's n counts its indexed keys key0..key{n-1}; the
			// first missing one ends the loop, so n cannot outrun the line.
			for i := 0; i < n; i++ {
				key, ok := args["key"+strconv.Itoa(i)]
				if !ok {
					return fmt.Errorf("batch of %d is missing key%d", n, i)
				}
				c.Keys = append(c.Keys, []byte(key))
			}
		}
	}
	for name, v := range args {
		if attr, ok := strings.CutPrefix(name, "attr:"); ok {
			if c.Attrs == nil {
				c.Attrs = map[string]string{}
			}
			c.Attrs[attr] = v
		}
	}
	return nil
}

// Line renders c as a text request line — the inverse of DecodeLine.
func (c *Command) Line() string {
	args := map[string]string{}
	for name, v := range map[string]string{
		"key": string(c.Key), "path": c.Path, "mode": string(c.Mode), "trace": c.Trace,
		"segweights": c.SegWeights, "id": c.ID, "keywords": strings.Join(c.Keywords, ","),
	} {
		if v != "" {
			args[name] = v
		}
	}
	if c.K > 0 {
		args["k"] = strconv.Itoa(c.K)
	}
	if c.Budget > 0 {
		args["budget"] = c.Budget.String()
	}
	if c.Slow {
		args["slow"] = "1"
	}
	n := c.N
	if c.Cmd == CmdBatchQuery {
		n = len(c.Keys)
		for i, key := range c.Keys {
			args["key"+strconv.Itoa(i)] = string(key)
		}
	}
	if n > 0 {
		args["n"] = strconv.Itoa(n)
	}
	for name, v := range c.Attrs {
		args["attr:"+name] = v
	}
	return FormatRequest(Request{Cmd: c.Cmd, Args: args})
}

// DecodeFrame decodes one v2 request frame into c, reusing c's key-slice
// capacity; keys and mode alias payload. An OpText frame carries a text line
// and decodes as one.
func DecodeFrame(c *Command, op byte, payload []byte) error {
	if op == OpText {
		return DecodeLine(c, strings.TrimSpace(string(payload)))
	}
	*c = Command{Keys: c.Keys[:0]}
	r := NewBinReader(payload)
	switch op {
	case OpPing:
		c.Cmd = CmdPing
	case OpCount:
		c.Cmd = CmdCount
	case OpStats:
		c.Cmd = CmdStats
	case OpDelete:
		c.Cmd = CmdDelete
		c.Key = r.Bytes16()
	case OpQuery:
		c.Cmd = CmdQuery
		c.Key = r.Bytes16()
		c.decodeQueryTail(&r)
	case OpBatchQuery:
		c.Cmd = CmdBatchQuery
		// Stopping at the first short read bounds the key slice by the
		// payload, whatever count the frame claims.
		for n := r.U16(); n > 0 && !r.fail; n-- {
			c.Keys = append(c.Keys, r.Bytes16())
		}
		c.decodeQueryTail(&r)
	case OpIngest:
		c.Cmd = CmdAddFile
		c.Path = string(r.Bytes16())
		for n := r.U16(); n > 0 && !r.fail; n-- {
			if c.Attrs == nil {
				c.Attrs = map[string]string{}
			}
			name := string(r.Bytes16())
			c.Attrs[name] = string(r.Bytes16())
		}
	case OpTrace:
		c.Cmd = CmdTrace
		c.N = r.U16()
		c.Slow = r.U8() != 0
		c.ID = string(r.Bytes16())
	default:
		return fmt.Errorf("unknown opcode 0x%02x", op)
	}
	return r.Err()
}

// decodeQueryTail reads the option fields OpQuery and OpBatchQuery share:
// u16 k, u8-string mode, u8 flags, u64 budget nanoseconds.
func (c *Command) decodeQueryTail(r *BinReader) {
	c.K = r.U16()
	c.Mode = r.Bytes8()
	if r.U8()&QueryFlagTrace != 0 {
		c.Trace = TraceOn
	}
	// A budget past the duration range asks for no more than none does.
	c.Budget = max(time.Duration(r.U64()), 0)
}

// AppendFrame appends c's v2 request payload to b and returns the opcode to
// frame it under — the inverse of DecodeFrame. A command with its own opcode
// whose arguments all fit that opcode's fields gets the compact encoding;
// everything else (QUERYFILE, SEARCH, INFO, TELEMETRY, and queries carrying
// restrictions, weight adjustments or a propagated trace ID) tunnels its
// text line through OpText, so v2 never loses protocol surface.
func (c *Command) AppendFrame(b []byte) (op byte, out []byte) {
	switch c.Cmd {
	case CmdPing:
		return OpPing, b
	case CmdCount:
		return OpCount, b
	case CmdStats:
		return OpStats, b
	case CmdDelete:
		return OpDelete, AppendBytes16(b, c.Key)
	case CmdQuery:
		if c.fitsQueryTail() && len(c.Key) <= 0xffff {
			return OpQuery, appendQueryTail(AppendBytes16(b, c.Key), c.K, c.Mode, c.Trace != "", uint64(c.Budget))
		}
	case CmdBatchQuery:
		if c.fitsQueryTail() && len(c.Keys) <= 0xffff {
			b = AppendU16(b, uint16(len(c.Keys)))
			for _, key := range c.Keys {
				b = AppendBytes16(b, key)
			}
			return OpBatchQuery, appendQueryTail(b, c.K, c.Mode, c.Trace != "", uint64(c.Budget))
		}
	case CmdAddFile:
		b = AppendU16(AppendStr16(b, c.Path), uint16(len(c.Attrs)))
		for name, v := range c.Attrs {
			b = AppendStr16(AppendStr16(b, name), v)
		}
		return OpIngest, b
	case CmdTrace:
		b = AppendU16(b, uint16(c.N))
		if c.Slow {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		return OpTrace, AppendStr16(b, c.ID)
	}
	return OpText, append(b, c.Line()...)
}

// fitsQueryTail reports whether c's query options are all expressible in the
// OpQuery/OpBatchQuery field tail.
func (c *Command) fitsQueryTail() bool {
	return len(c.Keywords) == 0 && len(c.Attrs) == 0 && c.SegWeights == "" &&
		(c.Trace == "" || c.Trace == TraceOn) &&
		c.K >= 0 && c.K <= 0xffff && len(c.Mode) <= 0xff && c.Budget >= 0
}

// appendQueryTail appends the option fields decodeQueryTail reads.
func appendQueryTail(b []byte, k int, mode []byte, trace bool, budgetNs uint64) []byte {
	b = AppendU16(b, uint16(k))
	b = append(append(b, byte(len(mode))), mode...)
	var flags byte
	if trace {
		flags = QueryFlagTrace
	}
	return AppendU64(append(b, flags), budgetNs)
}
