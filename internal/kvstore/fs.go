package kvstore

import (
	"io"
	"os"
)

// FS is the store's seam to the filesystem: every byte the store persists
// and every durability barrier it relies on goes through this interface.
// Production uses osFS (the real filesystem); the crash-torture tests inject
// a fault-modeling implementation that can tear writes, fail fsyncs and
// simulate a power cut at any write/sync boundary, then "reboot" to exactly
// the durable state — so the recovery path is exercised against every crash
// the real filesystem could produce, not just cleanly written files.
type FS interface {
	// MkdirAll creates the database directory (and parents).
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file (or directory, for syncDir) read-only.
	Open(name string) (File, error)
	// ReadFile reads a whole file; a missing file satisfies
	// errors.Is(err, os.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath. Durability of the
	// rename itself requires a directory sync (syncDir).
	Rename(oldpath, newpath string) error
	// Size returns the current byte length of a file.
	Size(name string) (int64, error)
	// Remove deletes a file. Durability of the removal requires a
	// directory sync.
	Remove(name string) error
}

// File is the file handle surface the store uses.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file's written data to durable storage.
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
	// Size returns the current byte length.
	Size() (int64, error)
}

// osFS is the production filesystem.
type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// osFile adapts *os.File to File.
type osFile struct{ f *os.File }

func (o osFile) Read(p []byte) (int, error)                { return o.f.Read(p) }
func (o osFile) Write(p []byte) (int, error)               { return o.f.Write(p) }
func (o osFile) Seek(off int64, whence int) (int64, error) { return o.f.Seek(off, whence) }
func (o osFile) Close() error                              { return o.f.Close() }
func (o osFile) Sync() error                               { return o.f.Sync() }
func (o osFile) Truncate(size int64) error                 { return o.f.Truncate(size) }
func (o osFile) Size() (int64, error) {
	fi, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
