package protocol

import (
	"bufio"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseRequestNeverPanics: arbitrary lines must parse or error.
func TestParseRequestNeverPanics(t *testing.T) {
	f := func(line string) bool {
		req, err := ParseRequest(line)
		if err == nil {
			// A parsed request must format back into something parseable.
			if _, err := ParseRequest(FormatRequest(req)); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestReadResponseNeverPanics: arbitrary response bytes must read or error.
func TestReadResponseNeverPanics(t *testing.T) {
	f := func(body string) bool {
		_, _, err := ReadResponseMeta(bufio.NewReader(strings.NewReader(body)))
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestFormatRequestRoundTripsArbitraryValues: any key/value map with sane
// argument names survives format → parse.
func TestFormatRequestRoundTripsArbitraryValues(t *testing.T) {
	f := func(val string) bool {
		if strings.ContainsAny(val, "\n\r") {
			return true // line-oriented protocol: newlines are out of scope
		}
		req := Request{Cmd: "QUERY", Args: map[string]string{"key": val}}
		got, err := ParseRequest(FormatRequest(req))
		if err != nil {
			return false
		}
		return got.Args["key"] == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
