package kvstore

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

func TestRecoveryAndCheckpointLogged(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil)).With("component", "kvstore")

	s, err := Open(Options{Dir: dir, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	for _, want := range []string{
		`msg="store recovered"`,
		"wal_records=0",
		`msg="checkpoint written"`,
		"component=kvstore",
		"level=INFO",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}

	// Reopen replays nothing (checkpoint truncated the WAL) but still logs
	// the recovery summary with the restored table count.
	buf.Reset()
	s, err = Open(Options{Dir: dir, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, ok := s.Get("t", []byte("k")); !ok || string(v) != "v" {
		t.Fatalf("value lost across restart: %q %v", v, ok)
	}
	if !strings.Contains(buf.String(), "tables=1") {
		t.Errorf("recovery log missing table count:\n%s", buf.String())
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()}) // no logger configured
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("t", []byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
