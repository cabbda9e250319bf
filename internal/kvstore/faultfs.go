package kvstore

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"sync"
)

// FaultFS is a fault-injecting in-memory FS for crash-torture suites —
// exported so the engine-level torture tests (internal/core) can drive the
// same fault matrix through the metadata store. It models the split a real
// filesystem has between the page cache and durable storage:
//
//   - each inode carries data (the page-cache view every read sees) and
//     durable (what survives a power cut);
//   - file Sync commits data → durable for that inode;
//   - name → inode bindings (creates and renames) become durable only when
//     the *directory* is synced, matching the strict POSIX model where a
//     fully fsynced file can still vanish if its directory entry was never
//     flushed;
//   - a power cut (CrashNow) replaces every inode's durable content with a
//     plausible writeback outcome: nothing flushed, everything flushed, or
//     a torn prefix of the unsynced delta, chosen by the scenario's seeded
//     RNG.
//
// Every write boundary — Write, Sync, Truncate, Rename, Remove, directory
// Sync — advances an operation counter; a scenario arms exactly one
// (counter, mode) pair, so the torture suite can enumerate every boundary
// of a workload and fault each one in every mode.

// FaultMode selects what happens at the armed operation.
type FaultMode int

const (
	// FaultErr fails the operation with ErrInjected; the process keeps
	// running (the store is expected to poison itself where durability is
	// now unknowable).
	FaultErr FaultMode = iota
	// FaultShortErr applies a strict prefix of a write and then fails —
	// a torn write with the error surfaced. Non-write operations treat it
	// as FaultErr.
	FaultShortErr
	// FaultCrash is a power cut before the operation takes effect.
	FaultCrash
	// FaultCrashAfter is a power cut after the operation takes effect
	// (and, where the operation implies durability — Sync, journaled
	// Rename — after that durability too).
	FaultCrashAfter
)

// TortureModes is the full fault matrix a torture driver applies to every
// write boundary.
var TortureModes = []FaultMode{FaultErr, FaultShortErr, FaultCrash, FaultCrashAfter}

func (m FaultMode) String() string {
	switch m {
	case FaultErr:
		return "err"
	case FaultShortErr:
		return "short-write-err"
	case FaultCrash:
		return "crash-before"
	case FaultCrashAfter:
		return "crash-after"
	}
	return "unknown"
}

var (
	// ErrInjected is the error surfaced by a FaultErr/FaultShortErr fault.
	ErrInjected = errors.New("faultfs: injected I/O error")
	// ErrCrashed is returned by every operation after a simulated power cut
	// until Reboot.
	ErrCrashed = errors.New("faultfs: power cut")
)

// fsInode is one file: data is the page-cache view, durable is what a power
// cut preserves.
type fsInode struct {
	data    []byte
	durable []byte
}

// FaultFS is the fault-injecting FS.
type FaultFS struct {
	mu      sync.Mutex
	names   map[string]*fsInode // page-cache namespace
	durable map[string]*fsInode // namespace as of the last directory sync
	dirs    map[string]bool
	rng     *rand.Rand

	ops     int // write-boundary operations seen so far
	failAt  int // operation index to fault at; -1 never faults
	mode    FaultMode
	crashed bool
	trace   []string // every write-boundary operation: "rename db/wal.log", ...

	// Set before the store opens. async lets its automatic checkpoints run
	// in the background; otherwise the commit that starts one waits for it.
	// beforeSync runs, outside the lock, before every file Sync.
	async      bool
	beforeSync func(name string)
}

func NewFaultFS(seed int64) *FaultFS {
	return &FaultFS{
		names:   map[string]*fsInode{},
		durable: map[string]*fsInode{},
		dirs:    map[string]bool{},
		rng:     rand.New(rand.NewSource(seed)),
		failAt:  -1,
	}
}

// Arm schedules a fault at write-boundary operation index at.
func (m *FaultFS) Arm(at int, mode FaultMode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failAt = at
	m.mode = mode
}

// OpCount returns how many write-boundary operations have run.
func (m *FaultFS) OpCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// IsCrashed reports whether a simulated power cut has happened.
func (m *FaultFS) IsCrashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// step advances the operation counter, noting what the operation is, and
// reports whether it must fault (callers hold m.mu).
func (m *FaultFS) step(op, name string) (FaultMode, bool) {
	idx := m.ops
	m.ops++
	m.trace = append(m.trace, op+" "+name)
	if idx == m.failAt {
		return m.mode, true
	}
	return 0, false
}

// faultLocked steps the counter for an operation whose effect is apply and,
// if the armed fault hits it, returns the error it must fail with: an
// injected error, or a power cut before apply or after it (callers hold
// m.mu). Write, which can also tear, handles its own fault.
func (m *FaultFS) faultLocked(op, name string, apply func()) error {
	mode, fault := m.step(op, name)
	if !fault {
		return nil
	}
	if mode == FaultErr || mode == FaultShortErr {
		return ErrInjected
	}
	if mode == FaultCrashAfter {
		apply()
	}
	m.crashNowLocked()
	return ErrCrashed
}

// CrashNow simulates a power cut from outside a faulting operation.
func (m *FaultFS) CrashNow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.crashed {
		m.crashNowLocked()
	}
}

func (m *FaultFS) crashNowLocked() {
	m.crashed = true
	seen := map[*fsInode]bool{}
	for _, n := range m.names {
		if !seen[n] {
			seen[n] = true
			n.durable = m.tearLocked(n)
		}
	}
	for _, n := range m.durable {
		if !seen[n] {
			seen[n] = true
			n.durable = m.tearLocked(n)
		}
	}
}

// tearLocked picks what the kernel managed to write back before the power
// cut: the last synced content, the full page cache, or a torn state in
// between.
func (m *FaultFS) tearLocked(n *fsInode) []byte {
	if bytes.Equal(n.data, n.durable) {
		return n.durable
	}
	if len(n.data) > len(n.durable) && bytes.HasPrefix(n.data, n.durable) {
		// Append-only delta: any prefix of it may have been written back.
		extra := m.rng.Intn(len(n.data) - len(n.durable) + 1)
		return append([]byte(nil), n.data[:len(n.durable)+extra]...)
	}
	// Rewrite or truncate delta: nothing, everything, or a prefix tear.
	switch m.rng.Intn(3) {
	case 0:
		return n.durable
	case 1:
		return append([]byte(nil), n.data...)
	default:
		return append([]byte(nil), n.data[:m.rng.Intn(len(n.data)+1)]...)
	}
}

// Reboot returns a crashed filesystem to service holding exactly the
// durable state, with fault injection disarmed (recovery must succeed).
func (m *FaultFS) Reboot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
	m.failAt = -1
	names := make(map[string]*fsInode, len(m.durable))
	durable := make(map[string]*fsInode, len(m.durable))
	for name, n := range m.durable {
		fresh := &fsInode{
			data:    append([]byte(nil), n.durable...),
			durable: append([]byte(nil), n.durable...),
		}
		names[name] = fresh
		durable[name] = fresh
	}
	m.names = names
	m.durable = durable
}

func (m *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	m.dirs[path] = true
	return nil
}

func (m *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	n := m.names[name]
	if n == nil {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		n = &fsInode{}
		m.names[name] = n
	} else if flag&os.O_TRUNC != 0 {
		n.data = nil
	}
	return &faultHandle{fs: m, node: n, name: name, appendMode: flag&os.O_APPEND != 0}, nil
}

func (m *FaultFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	if m.dirs[name] {
		return &faultHandle{fs: m, name: name}, nil // directory handle
	}
	n := m.names[name]
	if n == nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &faultHandle{fs: m, node: n, name: name}, nil
}

func (m *FaultFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	n := m.names[name]
	if n == nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), n.data...), nil
}

func (m *FaultFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	apply := func() {
		n := m.names[oldpath]
		if n == nil {
			return
		}
		m.names[newpath] = n
		delete(m.names, oldpath)
	}
	if err := m.faultLocked("rename", oldpath, func() {
		// The rename reached the metadata journal before the cut: it is
		// applied and durable even without the directory sync.
		apply()
		if n := m.names[newpath]; n != nil {
			m.durable[newpath] = n
			delete(m.durable, oldpath)
		}
	}); err != nil {
		return err
	}
	if m.names[oldpath] == nil {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	apply()
	return nil
}

func (m *FaultFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if err := m.faultLocked("remove", name, func() { // journaled like a rename
		delete(m.names, name)
		delete(m.durable, name)
	}); err != nil {
		return err
	}
	if m.names[name] == nil {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.names, name)
	return nil
}

func (m *FaultFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	n := m.names[name]
	if n == nil {
		return 0, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return int64(len(n.data)), nil
}

// faultHandle is an open file (or, with node == nil, directory) on a FaultFS.
type faultHandle struct {
	fs         *FaultFS
	node       *fsInode // nil for directory handles
	name       string
	appendMode bool
	off        int64
}

func (h *faultHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.node == nil {
		return 0, errors.New("faultfs: read on directory")
	}
	if h.off >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[h.off:])
	h.off += int64(n)
	return n, nil
}

func (h *faultHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.node == nil {
		return 0, errors.New("faultfs: write on directory")
	}
	if mode, fault := h.fs.step("write", h.name); fault {
		switch mode {
		case FaultErr:
			return 0, ErrInjected
		case FaultShortErr:
			n := 0
			if len(p) > 1 {
				n = h.fs.rng.Intn(len(p)) // strictly short
			}
			h.writeLocked(p[:n])
			return n, ErrInjected
		case FaultCrash:
			h.fs.crashNowLocked()
			return 0, ErrCrashed
		case FaultCrashAfter:
			h.writeLocked(p)
			h.fs.crashNowLocked()
			return len(p), ErrCrashed
		}
	}
	h.writeLocked(p)
	return len(p), nil
}

func (h *faultHandle) writeLocked(p []byte) {
	if h.appendMode {
		h.off = int64(len(h.node.data))
	}
	end := h.off + int64(len(p))
	if end > int64(len(h.node.data)) {
		grown := make([]byte, end)
		copy(grown, h.node.data)
		h.node.data = grown
	}
	copy(h.node.data[h.off:], p)
	h.off = end
}

func (h *faultHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.node.data)) + offset
	}
	return h.off, nil
}

func (h *faultHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	return nil
}

func (h *faultHandle) Sync() error {
	if h.fs.beforeSync != nil && h.node != nil {
		h.fs.beforeSync(h.name)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	if err := h.fs.faultLocked("sync", h.name, h.syncLocked); err != nil {
		return err
	}
	h.syncLocked()
	return nil
}

func (h *faultHandle) syncLocked() {
	if h.node == nil {
		// Directory sync: the current name → inode bindings become durable.
		durable := make(map[string]*fsInode, len(h.fs.names))
		for name, n := range h.fs.names {
			durable[name] = n
		}
		h.fs.durable = durable
		return
	}
	h.node.durable = append([]byte(nil), h.node.data...)
}

func (h *faultHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	if h.node == nil {
		return errors.New("faultfs: truncate on directory")
	}
	apply := func() {
		if size <= int64(len(h.node.data)) {
			h.node.data = append([]byte(nil), h.node.data[:size]...)
		} else {
			grown := make([]byte, size)
			copy(grown, h.node.data)
			h.node.data = grown
		}
	}
	if err := h.fs.faultLocked("truncate", h.name, apply); err != nil {
		return err
	}
	apply()
	return nil
}

func (h *faultHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	return int64(len(h.node.data)), nil
}
