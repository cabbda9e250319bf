package server

import (
	"io"
	"time"

	"ferret/internal/protocol"
	"ferret/internal/telemetry/trace"
)

// shape is which of the three payloads a response carries.
type shape uint8

const (
	shapePairs shape = iota // name=value pairs; with none, the bare OK
	shapeRows               // result rows plus head-line flags
	shapeBatch              // per-query groups of a BATCHQUERY
)

// response is what a handler returns for its request: the payload in one of
// three shapes, framing-independent, and the request's trace when it was
// armed (respond records the write into it and finishes it).
type response struct {
	shape shape
	pairs map[string]string
	rows  []protocol.Result
	meta  protocol.ResponseMeta
	batch []protocol.BatchItem
	tr    *trace.Active
}

// sizeHint estimates the encoded response's size, to draw a wire buffer of
// the right class.
func (r *response) sizeHint() int {
	n := 80
	for k, v := range r.pairs {
		n += len(k) + len(v) + 6
	}
	for i := range r.rows {
		n += len(r.rows[i].Key) + 28
	}
	for i := range r.batch {
		n += len(r.batch[i].Err) + 24
		for j := range r.batch[i].Results {
			n += len(r.batch[i].Results[j].Key) + 28
		}
	}
	return n
}

// encoder renders a response payload in one wire format, and names the v2
// status code that payload travels under when it is framed. It is the only
// thing that differs between a text connection and an upgraded one once a
// request is decoded: two implementations, because they hide two formats.
type encoder interface {
	pairs(b []byte, pairs map[string]string) ([]byte, byte)
	results(b []byte, rows []protocol.Result, meta protocol.ResponseMeta) ([]byte, byte)
	batch(b []byte, items []protocol.BatchItem) ([]byte, byte)
	err(b []byte, msg string) ([]byte, byte)
}

// respond encodes one response — err's message when the request failed,
// counted in the serving-layer error counter — into a pooled wire buffer,
// inside a v2 frame when framed, and writes it in one call: no intermediate
// buffers, no per-response bufio.Writer. For a traced request the write is
// recorded as a span of its trace, which is then finished, applying
// retention. The returned error is a transport error.
func (s *Server) respond(w io.Writer, enc encoder, framed bool, resp *response, err error) error {
	met := s.metrics()
	var msg string
	if err != nil {
		met.errors.Inc()
		msg = err.Error()
	}
	wb, miss := getWireBuf(resp.sizeHint() + len(msg))
	met.wireGets.Inc()
	if miss {
		met.wireMisses.Inc()
	}
	b := wb.b
	if framed {
		b = protocol.BeginFrame(b)
	}
	var status byte
	switch {
	case err != nil:
		b, status = enc.err(b, msg)
	case resp.shape == shapeRows:
		b, status = enc.results(b, resp.rows, resp.meta)
	case resp.shape == shapeBatch:
		b, status = enc.batch(b, resp.batch)
	default:
		b, status = enc.pairs(b, resp.pairs)
	}
	if framed {
		protocol.EndFrame(b, status)
	}
	var werr error
	if resp.tr == nil {
		_, werr = w.Write(b)
	} else {
		// Only a traced request pays for timing its write.
		ws := time.Now()
		_, werr = w.Write(b)
		resp.tr.Record("write", ws, time.Since(ws))
		resp.tr.Finish()
	}
	wb.b = b
	putWireBuf(wb)
	met.wirePuts.Inc()
	return werr
}

// textEncoder renders the line-oriented text protocol; framed, it is the
// answer to an OpText request.
type textEncoder struct{}

func (textEncoder) pairs(b []byte, pairs map[string]string) ([]byte, byte) {
	return protocol.AppendPairs(b, pairs), protocol.StatusText
}

func (textEncoder) results(b []byte, rows []protocol.Result, meta protocol.ResponseMeta) ([]byte, byte) {
	return protocol.AppendResults(b, rows, meta), protocol.StatusText
}

func (textEncoder) batch(b []byte, items []protocol.BatchItem) ([]byte, byte) {
	return protocol.AppendBatch(b, items), protocol.StatusText
}

func (textEncoder) err(b []byte, msg string) ([]byte, byte) {
	return protocol.AppendError(b, msg), protocol.StatusText
}

// v2Encoder renders binary protocol v2 payloads, one status code per shape.
type v2Encoder struct{}

func (v2Encoder) pairs(b []byte, pairs map[string]string) ([]byte, byte) {
	return protocol.AppendPairsV2(b, pairs), protocol.StatusPairs
}

func (v2Encoder) results(b []byte, rows []protocol.Result, meta protocol.ResponseMeta) ([]byte, byte) {
	return protocol.AppendResultsV2(b, rows, meta), protocol.StatusResults
}

func (v2Encoder) batch(b []byte, items []protocol.BatchItem) ([]byte, byte) {
	return protocol.AppendBatchV2(b, items), protocol.StatusBatch
}

func (v2Encoder) err(b []byte, msg string) ([]byte, byte) {
	return protocol.AppendStr16(b, msg), protocol.StatusError
}
