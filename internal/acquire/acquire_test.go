package acquire

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ferret/internal/attr"
	"ferret/internal/object"
)

// fakeSystem collects ingested objects like an engine would.
type fakeSystem struct {
	ingested map[string]object.Object
	failKeys map[string]bool
}

func newFake() *fakeSystem {
	return &fakeSystem{ingested: map[string]object.Object{}, failKeys: map[string]bool{}}
}

func (f *fakeSystem) extract(path string) (object.Object, error) {
	if strings.Contains(path, "corrupt") {
		return object.Object{}, errors.New("corrupt file")
	}
	return object.Single("", []float32{float32(len(path))}), nil
}

func (f *fakeSystem) exists(key string) bool { _, ok := f.ingested[key]; return ok }

func (f *fakeSystem) ingest(o object.Object, a attr.Attrs) error {
	if f.failKeys[o.Key] {
		return errors.New("ingest failure")
	}
	f.ingested[o.Key] = o
	return nil
}

func writeFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, n := range names {
		path := filepath.Join(dir, n)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanOnce(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, "a.off", "sub/b.off", "notes.txt")
	f := newFake()
	s := &Scanner{
		Dir:        dir,
		Extensions: []string{".off"},
		Extract:    f.extract,
		Exists:     f.exists,
		Ingest:     f.ingest,
	}
	added, err := s.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("added %d, want 2", added)
	}
	if _, ok := f.ingested["sub/b.off"]; !ok {
		t.Fatalf("keys: %v", f.ingested)
	}
	if _, ok := f.ingested["notes.txt"]; ok {
		t.Fatal("extension filter ignored")
	}
	// Second scan: nothing new.
	added, err = s.ScanOnce()
	if err != nil || added != 0 {
		t.Fatalf("rescan added %d, err %v", added, err)
	}
	// A new file appears.
	writeFiles(t, dir, "c.off")
	added, _ = s.ScanOnce()
	if added != 1 {
		t.Fatalf("incremental scan added %d", added)
	}
}

func TestScanSkipsFailingFiles(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, "good.off", "corrupt.off")
	f := newFake()
	var failures []string
	s := &Scanner{
		Dir:     dir,
		Extract: f.extract,
		Exists:  f.exists,
		Ingest:  f.ingest,
		OnError: func(path string, err error) { failures = append(failures, filepath.Base(path)) },
	}
	added, err := s.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added %d", added)
	}
	if len(failures) != 1 || failures[0] != "corrupt.off" {
		t.Fatalf("failures %v", failures)
	}
}

func TestScanIngestErrorReported(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, "x.off")
	f := newFake()
	f.failKeys["x.off"] = true
	errs := 0
	s := &Scanner{
		Dir: dir, Extract: f.extract, Exists: f.exists, Ingest: f.ingest,
		OnError: func(string, error) { errs++ },
	}
	added, err := s.ScanOnce()
	if err != nil || added != 0 || errs != 1 {
		t.Fatalf("added=%d err=%v errs=%d", added, err, errs)
	}
}

func TestScanRequiresConfig(t *testing.T) {
	if _, err := (&Scanner{}).ScanOnce(); err == nil {
		t.Fatal("unconfigured scanner ran")
	}
}

func TestRunPeriodic(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, "a.off")
	f := newFake()
	s := &Scanner{
		Dir: dir, Interval: 10 * time.Millisecond,
		Extract: f.extract, Exists: f.exists, Ingest: f.ingest,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := s.Run(ctx)
	// First scan picks up a.off.
	select {
	case added := <-ch:
		if added != 1 {
			t.Fatalf("first scan added %d", added)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no scan completed")
	}
	// Add a file, wait for a later scan to find it.
	writeFiles(t, dir, "later.off")
	deadline := time.After(2 * time.Second)
	for {
		select {
		case <-ch:
			if _, ok := f.ingested["later.off"]; ok {
				cancel()
				return
			}
		case <-deadline:
			cancel()
			t.Fatal("later.off never ingested")
		}
	}
}
