package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary protocol v2: a compact length-prefixed framing negotiated per
// connection. A connection starts in the text protocol; a client that
// sends
//
//	HELLO proto=v2
//
// and receives "OK 1 / proto=v2" switches — with the server — to binary
// frames in both directions. Servers that predate v2 answer ERR and the
// connection simply stays on the text protocol.
//
// Every frame is
//
//	u32-LE length | u8 opcode | payload        (length = 1 + len(payload))
//
// Integers are little-endian; strings are length-prefixed (u8 or u16 as
// noted); float64s are IEEE-754 bit patterns. Request opcodes cover the
// hot commands (QUERY, BATCHQUERY, INGEST/ADDFILE, STATS, TRACE, PING,
// COUNT, DELETE); everything else — and queries carrying rare arguments
// such as keyword or attribute restrictions — tunnels its text command
// line through OpText and gets the text response back in a StatusText
// frame, so v2 never loses protocol surface (see Command.AppendFrame).
const (
	// MaxFrame bounds a frame's length word: parse + encode buffers are
	// pooled, so a corrupt or hostile length must not drive an allocation.
	MaxFrame = 16 << 20

	OpQuery      byte = 0x01
	OpBatchQuery byte = 0x02
	OpIngest     byte = 0x03
	OpStats      byte = 0x04
	OpTrace      byte = 0x05
	OpPing       byte = 0x06
	OpCount      byte = 0x07
	OpDelete     byte = 0x08
	OpText       byte = 0x09

	// Response status codes (the opcode byte of a response frame).
	StatusResults byte = 0x00 // query answer: flags, trace, result rows
	StatusError   byte = 0x01 // u16-string error message
	StatusPairs   byte = 0x02 // name=value map (STATS, INFO-shaped answers)
	StatusBatch   byte = 0x03 // BATCHQUERY: per-item results or error
	StatusText    byte = 0x04 // raw text-protocol response (OpText tunnel)

	// StatusResults flag bits.
	FlagDegraded  byte = 1 << 0
	FlagCacheSeen byte = 1 << 1 // the result cache was consulted
	FlagCacheHit  byte = 1 << 2 // ... and served the answer
)

// QueryFlagTrace asks the server to trace a binary QUERY/BATCHQUERY.
const QueryFlagTrace byte = 1 << 0

// wireModes are the filter-mode codes of a StatusResults frame, indexed by
// code: the text protocol's mode flag values, "" for none.
var wireModes = [...]string{"", "index", "scan", "mixed"}

// HelloV2 is the exact negotiation line (without newline) a client sends
// to upgrade, and HelloV2Value the proto argument a v2-capable server
// echoes back in its OK pairs.
const (
	HelloV2      = "HELLO proto=v2"
	HelloV2Value = "v2"
)

// ---- append-style encoders (allocation-free on a warm buffer) ----

// AppendU16 appends v little-endian.
func AppendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v), byte(v>>8))
}

// AppendU32 appends v little-endian.
func AppendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendU64 appends v little-endian.
func AppendU64(buf []byte, v uint64) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendF64 appends the IEEE-754 bit pattern of v.
func AppendF64(buf []byte, v float64) []byte {
	return AppendU64(buf, math.Float64bits(v))
}

// AppendStr8 appends a u8 length prefix and the string (truncated at 255).
func AppendStr8(buf []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	buf = append(buf, byte(len(s)))
	return append(buf, s...)
}

// AppendStr16 appends a u16 length prefix and the string (truncated at
// 64 KiB − 1; protocol keys are far shorter).
func AppendStr16(buf []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	buf = AppendU16(buf, uint16(len(s)))
	return append(buf, s...)
}

// AppendBytes16 is AppendStr16 for a byte slice.
func AppendBytes16(buf, b []byte) []byte {
	if len(b) > 0xffff {
		b = b[:0xffff]
	}
	buf = AppendU16(buf, uint16(len(b)))
	return append(buf, b...)
}

// BeginFrame appends a frame header to an empty buffer, to be filled in by
// EndFrame once the payload is appended behind it.
func BeginFrame(buf []byte) []byte { return append(buf, 0, 0, 0, 0, 0) }

// EndFrame completes the frame that is the whole of buf: its opcode, and the
// length word counting opcode and payload.
func EndFrame(buf []byte, op byte) {
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = op
}

// ReadFrame reads one frame into buf (reusing its capacity, growing only
// when the frame doesn't fit) and returns the opcode, the payload aliasing
// the returned buffer, and the buffer for reuse.
func ReadFrame(r *bufio.Reader, buf []byte) (op byte, payload, bufOut []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("protocol: bad frame length %d", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, fmt.Errorf("protocol: truncated frame: %w", err)
	}
	return buf[0], buf[1:n], buf, nil
}

// WriteFrame writes one complete frame (a convenience for clients; the
// server encodes into pooled buffers between BeginFrame and EndFrame).
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(1+len(payload)))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ErrShortFrame reports a payload that ended before its advertised
// contents.
var ErrShortFrame = errors.New("protocol: short frame payload")

// BinReader is a cursor over a frame payload. Reads after an underflow
// return zero values; check Err once at the end (the all-zero prefix it
// yields on truncation never validates as a complete message).
type BinReader struct {
	b    []byte
	off  int
	fail bool
}

// NewBinReader returns a cursor over payload.
func NewBinReader(payload []byte) BinReader { return BinReader{b: payload} }

func (r *BinReader) take(n int) []byte {
	if r.off+n > len(r.b) {
		r.fail = true
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *BinReader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *BinReader) U16() int {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return int(b[0]) | int(b[1])<<8
}

// U32 reads a little-endian uint32.
func (r *BinReader) U32() int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b))
}

// U64 reads a little-endian uint64.
func (r *BinReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads an IEEE-754 float64.
func (r *BinReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes8 reads a u8-length-prefixed byte string aliasing the payload.
func (r *BinReader) Bytes8() []byte { return r.take(int(r.U8())) }

// Bytes16 reads a u16-length-prefixed byte string aliasing the payload.
func (r *BinReader) Bytes16() []byte { return r.take(r.U16()) }

// Err reports whether any read ran off the payload.
func (r *BinReader) Err() error {
	if r.fail {
		return ErrShortFrame
	}
	return nil
}

// ---- message codecs ----
// (Request frames are encoded and decoded in command.go. The response
// encoders below append one payload each, so the server builds a frame in a
// pooled buffer; the decoders are the client's.)

// AppendQueryV2 encodes an OpQuery payload: key, k, mode, flags, budget —
// Command.AppendFrame's QUERY case for callers that frame by hand.
func AppendQueryV2(buf []byte, key string, k int, mode string, flags byte, budgetNs uint64) []byte {
	if len(mode) > 255 {
		mode = mode[:255]
	}
	return appendQueryTail(AppendStr16(buf, key), k, []byte(mode), flags&QueryFlagTrace != 0, budgetNs)
}

// AppendResultsV2 appends a StatusResults payload: flags, filter mode, trace
// ID and stage breakdown, then the result rows. A StatusBatch item's body
// has the same shape.
func AppendResultsV2(b []byte, results []Result, meta ResponseMeta) []byte {
	var flags byte
	if meta.Degraded {
		flags |= FlagDegraded
	}
	if meta.Cache != "" {
		flags |= FlagCacheSeen
		if meta.Cache == "hit" {
			flags |= FlagCacheHit
		}
	}
	b = append(b, flags, byte(max(slices.Index(wireModes[:], meta.Mode), 0)))
	b = AppendStr8(b, meta.TraceID)
	stages := meta.Stages
	if len(stages) > 255 {
		stages = stages[:255]
	}
	b = append(b, byte(len(stages)))
	for _, st := range stages {
		b = AppendU64(AppendStr8(b, st.Name), uint64(st.Dur))
	}
	b = AppendU32(b, uint32(len(results)))
	for _, r := range results {
		b = AppendF64(AppendStr16(b, r.Key), r.Distance)
	}
	return b
}

// AppendPairsV2 appends a StatusPairs payload. A nil map is the binary
// protocol's bare OK.
func AppendPairsV2(b []byte, pairs map[string]string) []byte {
	b = AppendU16(b, uint16(len(pairs)))
	for k, v := range pairs {
		b = AppendStr16(AppendStr16(b, k), v)
	}
	return b
}

// AppendBatchV2 appends a StatusBatch payload: per item either 1 and its
// error message, or 0 and a u32-length-prefixed StatusResults-shaped body.
func AppendBatchV2(b []byte, items []BatchItem) []byte {
	b = AppendU16(b, uint16(len(items)))
	for _, it := range items {
		if it.Err != "" {
			b = AppendStr16(append(b, 1), it.Err)
			continue
		}
		lenOff := len(b) + 1
		b = AppendResultsV2(append(b, 0, 0, 0, 0, 0), it.Results, it.Meta)
		binary.LittleEndian.PutUint32(b[lenOff:], uint32(len(b)-lenOff-4))
	}
	return b
}

// DecodeResults decodes a StatusResults payload into results and meta.
func DecodeResults(payload []byte) ([]Result, ResponseMeta, error) {
	r := NewBinReader(payload)
	var meta ResponseMeta
	flags := r.U8()
	meta.Degraded = flags&FlagDegraded != 0
	if flags&FlagCacheSeen != 0 {
		if flags&FlagCacheHit != 0 {
			meta.Cache = "hit"
		} else {
			meta.Cache = "miss"
		}
	}
	if code := int(r.U8()); code < len(wireModes) {
		meta.Mode = wireModes[code]
	}
	meta.TraceID = string(r.Bytes8())
	nstages := int(r.U8())
	for i := 0; i < nstages; i++ {
		name := string(r.Bytes8())
		dur := int64(r.U64())
		if r.fail {
			break
		}
		meta.Stages = append(meta.Stages, StageTiming{Name: name, Dur: dur})
	}
	n := r.U32()
	if r.fail || n < 0 || n > 10_000_000 {
		return nil, meta, ErrShortFrame
	}
	out := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		key := string(r.Bytes16())
		dist := r.F64()
		if r.fail {
			return nil, meta, ErrShortFrame
		}
		out = append(out, Result{Key: key, Distance: dist})
	}
	return out, meta, r.Err()
}

// DecodePairs decodes a StatusPairs payload.
func DecodePairs(payload []byte) (map[string]string, error) {
	r := NewBinReader(payload)
	n := r.U16()
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := string(r.Bytes16())
		v := string(r.Bytes16())
		if r.fail {
			return nil, ErrShortFrame
		}
		out[k] = v
	}
	return out, r.Err()
}

// DecodeBatch decodes a StatusBatch payload.
func DecodeBatch(payload []byte) ([]BatchItem, error) {
	r := NewBinReader(payload)
	n := r.U16()
	items := make([]BatchItem, 0, n)
	for i := 0; i < n; i++ {
		kind := r.U8()
		if r.fail {
			return nil, ErrShortFrame
		}
		if kind == 1 {
			msg := string(r.Bytes16())
			if r.fail {
				return nil, ErrShortFrame
			}
			items = append(items, BatchItem{Err: msg})
			continue
		}
		itemLen := r.U32()
		body := r.take(itemLen)
		if r.fail {
			return nil, ErrShortFrame
		}
		results, meta, err := DecodeResults(body)
		if err != nil {
			return nil, err
		}
		items = append(items, BatchItem{Results: results, Meta: meta})
	}
	return items, r.Err()
}

// DecodeError decodes a StatusError payload into a ServerError.
func DecodeError(payload []byte) error {
	r := NewBinReader(payload)
	msg := string(r.Bytes16())
	if r.fail {
		return ErrShortFrame
	}
	return &ServerError{Msg: msg}
}
