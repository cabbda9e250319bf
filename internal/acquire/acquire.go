// Package acquire implements the Ferret toolkit's default data acquisition
// component (paper §4.3): a periodic scan of a designated directory that
// imports each newly added file into the similarity search system through
// the plug-in extractor. Alternative sources (external databases, object
// stores) customize the component by supplying their own Scanner fields.
package acquire

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"ferret/internal/attr"
	"ferret/internal/object"
)

// Scanner watches a directory tree and ingests new files.
type Scanner struct {
	// Dir is the designated directory to scan recursively.
	Dir string
	// Interval between scans for Run. Default 10s.
	Interval time.Duration
	// Extensions filters file names (lower case, with dot, e.g. ".off").
	// Empty means all files.
	Extensions []string
	// Extract is the plug-in segmentation and feature extraction function;
	// the object's key defaults to the path relative to Dir.
	Extract func(path string) (object.Object, error)
	// Exists reports whether a key was already ingested (dedup).
	Exists func(key string) bool
	// Ingest adds the object with its attributes to the search system.
	Ingest func(o object.Object, a attr.Attrs) error
	// OnError, when set, observes per-file failures (which are otherwise
	// skipped so one bad file cannot stall acquisition).
	OnError func(path string, err error)
}

// ScanOnce walks the directory once, ingesting files not yet in the
// system. It returns the number of newly ingested objects.
func (s *Scanner) ScanOnce() (int, error) {
	if s.Dir == "" || s.Extract == nil || s.Ingest == nil {
		return 0, fmt.Errorf("acquire: Dir, Extract and Ingest are required")
	}
	added := 0
	err := filepath.WalkDir(s.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !s.match(d.Name()) {
			return nil
		}
		rel, err := filepath.Rel(s.Dir, path)
		if err != nil {
			rel = path
		}
		key := filepath.ToSlash(rel)
		if s.Exists != nil && s.Exists(key) {
			return nil
		}
		o, err := s.Extract(path)
		if err != nil {
			s.fail(path, err)
			return nil
		}
		// The scanner owns the naming: objects acquired from the directory
		// are keyed by their path relative to Dir, whatever key the
		// extractor chose, so keys stay stable across machines and match
		// benchmark files.
		o.Key = key
		if err := s.Ingest(o, attr.Attrs{"path": key}); err != nil {
			s.fail(path, err)
			return nil
		}
		added++
		return nil
	})
	return added, err
}

// Run scans periodically until the context is cancelled, delivering the
// per-scan added counts on the returned channel (dropped if not consumed).
func (s *Scanner) Run(ctx context.Context) <-chan int {
	interval := s.Interval
	if interval <= 0 {
		interval = 10 * time.Second
	}
	ch := make(chan int, 1)
	go func() {
		defer close(ch)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			added, err := s.ScanOnce()
			if err != nil {
				s.fail(s.Dir, err)
			}
			select {
			case ch <- added:
			default:
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return ch
}

func (s *Scanner) match(name string) bool {
	if len(s.Extensions) == 0 {
		return true
	}
	ext := strings.ToLower(filepath.Ext(name))
	for _, e := range s.Extensions {
		if ext == e {
			return true
		}
	}
	return false
}

func (s *Scanner) fail(path string, err error) {
	if s.OnError != nil {
		s.OnError(path, err)
	}
}
