package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestParseRequestBasic(t *testing.T) {
	req, err := ParseRequest(`query key=img/dog.jpg k=5 mode=filtering`)
	if err != nil {
		t.Fatal(err)
	}
	if req.Cmd != "QUERY" {
		t.Fatalf("cmd %q", req.Cmd)
	}
	if req.Args["key"] != "img/dog.jpg" || req.Args["k"] != "5" {
		t.Fatalf("args %v", req.Args)
	}
}

func TestParseRequestQuoted(t *testing.T) {
	req, err := ParseRequest(`ADDFILE path="my photos/dog 1.jpg" attr:note="a \"good\" dog"`)
	if err != nil {
		t.Fatal(err)
	}
	if req.Args["path"] != "my photos/dog 1.jpg" {
		t.Fatalf("path %q", req.Args["path"])
	}
	if req.Args["attr:note"] != `a "good" dog` {
		t.Fatalf("note %q", req.Args["attr:note"])
	}
}

func TestParseRequestErrors(t *testing.T) {
	for _, line := range []string{"", "  ", "CMD =v", "CMD novalue x", `CMD a="unterminated`} {
		if _, err := ParseRequest(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	req := Request{Cmd: "QUERY", Args: map[string]string{
		"key":   "a b/c.jpg",
		"k":     "7",
		"plain": "simple",
	}}
	got, err := ParseRequest(FormatRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != "QUERY" || got.Args["key"] != "a b/c.jpg" || got.Args["plain"] != "simple" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestWriteReadResults(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buf.Write(AppendResults(nil, []Result{
		{Key: "a.jpg", Distance: 0.5},
		{Key: "with space.jpg", Distance: 1.25},
	}, ResponseMeta{})); err != nil {
		t.Fatal(err)
	}
	lines, _, err := ReadResponseMeta(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	r0, err := ParseResultLine(lines[0])
	if err != nil || r0.Key != "a.jpg" || r0.Distance != 0.5 {
		t.Fatalf("line 0: %+v %v", r0, err)
	}
	r1, err := ParseResultLine(lines[1])
	if err != nil || r1.Key != "with space.jpg" || r1.Distance != 1.25 {
		t.Fatalf("line 1: %+v %v", r1, err)
	}
}

func TestWriteReadError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteError(&buf, errors.New("no such key \"x\"")); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadResponseMeta(bufio.NewReader(&buf))
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %T %v", err, err)
	}
	if !strings.Contains(se.Msg, `no such key "x"`) {
		t.Fatalf("message %q", se.Msg)
	}
}

func TestWritePairs(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buf.Write(AppendPairs(nil, map[string]string{"count": "42", "name": "two words"})); err != nil {
		t.Fatal(err)
	}
	lines, _, err := ReadResponseMeta(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "count=42" {
		t.Fatalf("lines %v", lines)
	}
}

func TestReadResponseMalformed(t *testing.T) {
	cases := []string{
		"WHAT 3\n",
		"OK notanumber\n",
		"OK -1\n",
		"OK 2\nonly-one-line\n",
	}
	for _, src := range cases {
		if _, _, err := ReadResponseMeta(bufio.NewReader(strings.NewReader(src))); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseResultLineErrors(t *testing.T) {
	for _, line := range []string{"", "onlykey", "key not-a-number", "a b c"} {
		if _, err := ParseResultLine(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}
