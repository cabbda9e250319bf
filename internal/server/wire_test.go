package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"ferret/internal/object"
	"ferret/internal/protocol"
)

// TestHugeKRejected: a result count past what a v2 frame can carry is a
// request error in every framing — as a text line it used to size the
// engine's top-k heap and panic the process. The connection (and the server)
// must answer ERR and keep serving.
func TestHugeKRejected(t *testing.T) {
	extract := func(path string) (object.Object, error) {
		return object.Single(path, []float32{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}), nil
	}
	addr, _ := startServerV2(t, extract)
	const huge = 4611686018427387904
	badK := func(err error) bool { return err != nil && strings.Contains(err.Error(), "bad k") }

	// The text framing, and — the same client calls on an upgraded
	// connection, where a k past u16 cannot ride the opcode — the tunnel.
	for _, c := range []*protocol.Client{dialText(t, addr), dialV2(t, addr)} {
		p := protocol.QueryParams{K: huge}
		if _, err := c.Query("c0/m0", p); !badK(err) {
			t.Fatalf("v2=%v QUERY k=%d: %v", c.ProtoV2(), huge, err)
		}
		if _, err := c.BatchQuery([]string{"c0/m0", "c1/m1"}, p); !badK(err) {
			t.Fatalf("v2=%v BATCHQUERY k=%d: %v", c.ProtoV2(), huge, err)
		}
		if _, err := c.QueryFile("probe.dat", p); !badK(err) {
			t.Fatalf("v2=%v QUERYFILE k=%d: %v", c.ProtoV2(), huge, err)
		}
		if _, err := c.Query("c0/m0", protocol.QueryParams{K: maxK + 1}); !badK(err) {
			t.Fatalf("v2=%v QUERY k=%d: %v", c.ProtoV2(), maxK+1, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("v2=%v PING after the rejected queries: %v", c.ProtoV2(), err)
		}
	}

	// A hand-built frame tops out at the bound, which is served.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	fmt.Fprintf(conn, "%s\n", protocol.HelloV2)
	if _, _, err := protocol.ReadResponseMeta(rd); err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(conn, protocol.OpQuery, protocol.AppendQueryV2(nil, "c0/m0", maxK, "bruteforce", 0, 0)); err != nil {
		t.Fatal(err)
	}
	status, payload, _, err := protocol.ReadFrame(rd, nil)
	if err != nil || status != protocol.StatusResults {
		t.Fatalf("k=%d frame: status 0x%02x, %v", maxK, status, err)
	}
	if rows, _, err := protocol.DecodeResults(payload); err != nil || len(rows) != 12 {
		t.Fatalf("k=%d frame returned %d rows, %v; want the whole corpus", maxK, len(rows), err)
	}
	if err := protocol.WriteFrame(conn, protocol.OpPing, nil); err != nil {
		t.Fatal(err)
	}
	if status, _, _, err := protocol.ReadFrame(rd, nil); err != nil || status != protocol.StatusPairs {
		t.Fatalf("PING after the k=%d frame: status 0x%02x, %v", maxK, status, err)
	}
}

// TestLargeFrameBufferDropped: the frame read buffer is reused across
// requests, but a request that grew it past the largest wire-buffer class
// must not pin that memory for the life of the connection.
func TestLargeFrameBufferDropped(t *testing.T) {
	_, engine := startServerV2(t, nil)
	srv := &Server{Engine: engine, DefaultK: 5}
	largest := wireClassSizes[wireClasses-1]

	var in bytes.Buffer
	frame := func(op byte, payload []byte) {
		if err := protocol.WriteFrame(&in, op, payload); err != nil {
			t.Fatal(err)
		}
	}
	tunnelPing := func(n int) []byte { return append(bytes.Repeat([]byte{' '}, n), "PING"...) }
	frame(protocol.OpText, tunnelPing(100<<10)) // fits a class: kept
	frame(protocol.OpPing, nil)
	frame(protocol.OpText, tunnelPing(2*largest)) // outgrows them: dropped
	frame(protocol.OpPing, nil)

	st := &connState{}
	rd := bufio.NewReader(&in)
	var caps []int
	for i := 0; i < 4; i++ {
		if err := srv.serveFrame(context.Background(), io.Discard, rd, st); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		caps = append(caps, cap(st.fbuf))
	}
	if caps[0] < 100<<10 || caps[0] > largest || caps[1] != caps[0] {
		t.Fatalf("a 100 KiB frame's buffer was not kept for the next request: caps %v", caps)
	}
	if caps[2] != 0 {
		t.Fatalf("a %d-byte frame left a %d-byte buffer on the connection", 2*largest, caps[2])
	}
	if caps[3] == 0 || caps[3] > largest {
		t.Fatalf("the request after the large one reads into a %d-byte buffer", caps[3])
	}
}

// decodeResponse reads back one encoded response the way a client would:
// text (bare or inside a StatusText frame) by line, v2 by status code.
func decodeResponse(t *testing.T, wire []byte, framed bool, want shape) (resp response, errMsg string) {
	t.Helper()
	status := protocol.StatusText
	if framed {
		var err error
		if status, wire, _, err = protocol.ReadFrame(bufio.NewReader(bytes.NewReader(wire)), nil); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	switch status {
	case protocol.StatusText:
		var lines []string
		lines, resp.meta, err = protocol.ReadResponseMeta(bufio.NewReader(bytes.NewReader(wire)))
		if se, ok := err.(*protocol.ServerError); ok {
			return resp, se.Msg
		}
		for _, line := range lines {
			if err != nil || want != shapeRows {
				break
			}
			var r protocol.Result
			r, err = protocol.ParseResultLine(line)
			resp.rows = append(resp.rows, r)
		}
		if err == nil && want == shapeBatch {
			resp.batch, err = protocol.ParseBatch(lines)
		}
		if err == nil && want == shapePairs {
			resp.pairs, err = protocol.ParsePairs(lines)
		}
	case protocol.StatusError:
		return resp, protocol.DecodeError(wire).(*protocol.ServerError).Msg
	case protocol.StatusResults:
		resp.rows, resp.meta, err = protocol.DecodeResults(wire)
	case protocol.StatusBatch:
		resp.batch, err = protocol.DecodeBatch(wire)
	case protocol.StatusPairs:
		resp.pairs, err = protocol.DecodePairs(wire)
	}
	if err != nil {
		t.Fatalf("decoding %q: %v", wire, err)
	}
	// The decoders differ in how they spell "none"; the content is what has
	// to agree.
	if len(resp.rows) == 0 {
		resp.rows = nil
	}
	for i := range resp.batch {
		if len(resp.batch[i].Results) == 0 {
			resp.batch[i].Results = nil
		}
	}
	return resp, ""
}

// TestEncodersAgree is the response half of the codec differential: every
// response shape, rendered by the text encoder, the tunnelled text encoder
// and the v2 encoder, decodes to the same rows, flags, pairs and batch
// groups.
func TestEncodersAgree(t *testing.T) {
	meta := protocol.ResponseMeta{Degraded: true, Mode: "index", TraceID: "00000000deadbeef", Cache: "hit",
		Stages: []protocol.StageTiming{{Name: "parse", Dur: 1200}, {Name: "rank", Dur: 910000}, {Name: "total", Dur: 1500000}}}
	rows := []protocol.Result{{Key: "a.jpg", Distance: 0.5}, {Key: "with space.jpg", Distance: 1.25}, {Key: `q"uo\te`, Distance: 3e-9}}
	cases := []struct {
		name string
		resp response
		err  error
	}{
		{name: "bare ok"},
		{name: "pairs", resp: response{pairs: map[string]string{"count": "42", "note": "two words", "empty": ""}}},
		{name: "rows", resp: response{shape: shapeRows, rows: rows, meta: meta}},
		{name: "no rows", resp: response{shape: shapeRows, meta: protocol.ResponseMeta{Cache: "miss"}}},
		{name: "batch", resp: response{shape: shapeBatch, batch: []protocol.BatchItem{
			{Results: rows, Meta: meta},
			{Err: `unknown object key "x y"`},
			{},
			{Results: rows[:1], Meta: protocol.ResponseMeta{Mode: "scan"}},
		}}},
		{name: "error", err: fmt.Errorf("unknown object key %q", "no such")},
	}
	srv := &Server{}
	encoders := []struct {
		name   string
		enc    encoder
		framed bool
	}{{"text", textEncoder{}, false}, {"tunnel", textEncoder{}, true}, {"v2", v2Encoder{}, true}}
	for _, tc := range cases {
		var first response
		var firstErr string
		for i, e := range encoders {
			var wire bytes.Buffer
			resp := tc.resp
			if err := srv.respond(&wire, e.enc, e.framed, &resp, tc.err); err != nil {
				t.Fatal(err)
			}
			got, errMsg := decodeResponse(t, wire.Bytes(), e.framed, tc.resp.shape)
			if i == 0 {
				first, firstErr = got, errMsg
				if tc.err != nil && errMsg != tc.err.Error() {
					t.Errorf("%s: text error %q, want %q", tc.name, errMsg, tc.err)
				}
				continue
			}
			if errMsg != firstErr || !reflect.DeepEqual(got, first) {
				t.Errorf("%s: %s decoded to\n%+v (err %q), text to\n%+v (err %q)", tc.name, e.name, got, errMsg, first, firstErr)
			}
		}
		if tc.err == nil && (len(first.rows) != len(tc.resp.rows) || len(first.pairs) != len(tc.resp.pairs) || len(first.batch) != len(tc.resp.batch)) {
			t.Errorf("%s: decoded %+v from %+v", tc.name, first, tc.resp)
		}
	}
}
