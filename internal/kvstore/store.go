// Package kvstore is an embedded, transactional key-value store with named
// B-tree tables, a write-ahead log, periodic checkpointing and crash
// recovery. It is the toolkit's substitute for Berkeley DB (paper §4.1.2,
// §4.1.3): the metadata manager and the attribute search engine both store
// their tables here.
//
// Durability follows the paper's deliberately relaxed model: all updates of
// a transaction are applied atomically (a crash never exposes a partial
// transaction), but commits become durable only when the log is synced —
// either on every commit (SyncEveryCommit) or on a periodic flush, in which
// case "updates may not become durable for several seconds ... under high
// load" and can be recomputed by re-acquiring data since the last
// checkpoint.
package kvstore

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ferret/internal/telemetry"
)

// ErrPoisoned is returned by every write operation after the store has seen
// a failed WAL sync (or another durability-barrier failure). Once an fsync
// fails, the kernel may have dropped the dirty pages the store believed were
// on their way to disk, so the durable log can silently diverge from the
// in-memory tables; refusing further writes turns that silent divergence
// into a loud, recoverable condition (close, reopen, recover).
var ErrPoisoned = errors.New("kvstore: store poisoned by an earlier sync failure; reopen to recover")

// SyncPolicy selects when committed transactions are made durable.
type SyncPolicy int

const (
	// SyncEveryCommit fsyncs the log on each commit (full durability).
	SyncEveryCommit SyncPolicy = iota
	// SyncPeriodic flushes commits to the OS on each commit and fsyncs on
	// a background interval — the paper's relaxed ACID mode.
	SyncPeriodic
)

// Options configures Open.
type Options struct {
	// Dir is the database directory (created if absent).
	Dir string
	// Sync selects the durability policy; default SyncEveryCommit.
	Sync SyncPolicy
	// SyncInterval is the background fsync period for SyncPeriodic;
	// default 1s.
	SyncInterval time.Duration
	// CheckpointBytes triggers an automatic checkpoint once the WAL grows
	// past this size; 0 means 64 MiB. Checkpoints can also be requested
	// explicitly with Store.Checkpoint.
	CheckpointBytes int64
	// Logger, when set, logs recovery and checkpoint events (a nil logger
	// discards them).
	Logger *slog.Logger
	// Telemetry, when set, receives the store's health gauge
	// (ferret_store_poisoned: 1 after a durability failure has frozen
	// writes) and its WAL fsync count (ferret_store_wal_fsyncs_total).
	Telemetry *telemetry.Registry

	// fs overrides the filesystem (crash-fault injection in tests); nil
	// means the real filesystem.
	FS FS
}

// Store is an open database. All methods are safe for concurrent use;
// writes are serialized internally. Lock order: closeMu < walMu < mu.
type Store struct {
	dir  string
	opts Options
	fs   FS

	mu     sync.RWMutex // guards tables and all btree access
	tables map[string]*btree

	walMu   sync.Mutex // serializes log appends and checkpoints
	log     *wal
	nextTxn uint64

	// poisonErr holds the first durability failure; once set, every write
	// returns ErrPoisoned (reads stay available).
	poisonErr atomic.Pointer[error]
	// metPoisoned mirrors the poisoned state into telemetry (may be nil).
	metPoisoned *telemetry.Gauge

	closed   chan struct{}
	syncDone sync.WaitGroup
	closeMu  sync.Mutex
	isClosed bool
}

// Open opens or creates a database in opts.Dir and recovers it to a
// consistent state: the last durable checkpoint plus every intact WAL
// record after it.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("kvstore: Dir is required")
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = time.Second
	}
	if opts.CheckpointBytes <= 0 {
		opts.CheckpointBytes = 64 << 20
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	fs := opts.FS
	if fs == nil {
		fs = osFS{}
	}
	if err := fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	tables, ckptTxn, err := loadCheckpoint(fs, opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: loading checkpoint: %w", err)
	}
	s := &Store{
		dir:    opts.Dir,
		opts:   opts,
		fs:     fs,
		tables: tables,
		closed: make(chan struct{}),
	}
	fsyncs := new(telemetry.Counter)
	if opts.Telemetry != nil {
		s.metPoisoned = opts.Telemetry.Gauge("ferret_store_poisoned",
			"1 when the store has frozen writes after a durability failure.")
		fsyncs = opts.Telemetry.Counter("ferret_store_wal_fsyncs_total",
			"fsyncs of the write-ahead log (per commit, per periodic tick, at checkpoints and close).")
	}
	walPath := filepath.Join(opts.Dir, "wal.log")
	applied, maxTxn, err := replayWAL(fs, walPath, s.applyRecord)
	if err != nil {
		return nil, fmt.Errorf("kvstore: replaying wal: %w", err)
	}
	s.nextTxn = max64(ckptTxn, maxTxn) + 1
	opts.Logger.Info("store recovered",
		"dir", opts.Dir,
		"checkpoint_txn", ckptTxn,
		"wal_records", applied,
		"next_txn", s.nextTxn,
		"tables", len(tables))
	s.log, err = openWAL(fs, walPath, fsyncs)
	if err != nil {
		return nil, err
	}
	// Make the WAL's directory entry durable: on a fresh database a synced
	// log file whose *name* was never fsynced can vanish in a power cut,
	// losing acknowledged commits (the torture test's strict rename/create
	// model catches exactly this).
	if err := syncDir(fs, opts.Dir); err != nil {
		s.log.close()
		return nil, err
	}
	if opts.Sync == SyncPeriodic {
		s.syncDone.Add(1)
		go s.syncLoop()
	}
	return s, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func (s *Store) syncLoop() {
	defer s.syncDone.Done()
	tick := time.NewTicker(s.opts.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-tick.C:
			s.walMu.Lock()
			if err := s.log.sync(); err != nil {
				s.poison(err)
			}
			s.walMu.Unlock()
		}
	}
}

// poison freezes writes after a durability failure. The first error wins;
// later calls are no-ops.
func (s *Store) poison(err error) {
	e := err
	if !s.poisonErr.CompareAndSwap(nil, &e) {
		return
	}
	if s.metPoisoned != nil {
		s.metPoisoned.Set(1)
	}
	s.opts.Logger.Error("store poisoned: refusing further writes", "dir", s.dir, "err", err.Error())
}

// Poisoned reports whether the store has frozen writes after a durability
// failure. A poisoned store still serves reads; reopening it recovers to
// the durable state.
func (s *Store) Poisoned() bool { return s.poisonErr.Load() != nil }

// writeAllowed returns ErrPoisoned (annotated with the original failure)
// when the store is poisoned.
func (s *Store) writeAllowed() error {
	if p := s.poisonErr.Load(); p != nil {
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, *p)
	}
	return nil
}

// applyRecord applies one WAL record to the in-memory tables (recovery and
// commit paths share it).
func (s *Store) applyRecord(r *walRecord) {
	for _, op := range r.ops {
		t := s.tables[op.table]
		if t == nil {
			t = newBtree()
			s.tables[op.table] = t
		}
		switch op.kind {
		case opPut:
			t.Put(op.key, op.val)
		case opDelete:
			t.Delete(op.key)
		}
	}
}

// Close flushes and syncs the log and releases the store. Further use of
// the store or its transactions is invalid.
func (s *Store) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.isClosed {
		return nil
	}
	s.isClosed = true
	close(s.closed)
	s.syncDone.Wait()
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.log.close()
}

// Get returns the value under key in table. Values are immutable: the store
// never writes into one it holds (an overwrite or delete replaces the slot,
// a checkpoint only reads), so the slice may be retained for as long as the
// caller likes, but must not be modified.
func (s *Store) Get(table string, key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[table]
	if t == nil {
		return nil, false
	}
	return t.Get(key)
}

// Scan visits entries of table with from ≤ key < to in key order (nil
// bounds are open). The visitor must not modify the slices and may retain
// a value, as with Get. It returns false to stop.
func (s *Store) Scan(table string, from, to []byte, fn func(k, v []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[table]
	if t == nil {
		return
	}
	t.AscendRange(from, to, fn)
}

// Len returns the number of keys in table.
func (s *Store) Len(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[table]
	if t == nil {
		return 0
	}
	return t.Len()
}

// Tables returns the names of all tables.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	return names
}

// Put writes one key in its own transaction.
func (s *Store) Put(table string, key, value []byte) error {
	txn := s.Begin()
	txn.Put(table, key, value)
	return txn.Commit()
}

// Delete removes one key in its own transaction.
func (s *Store) Delete(table string, key []byte) error {
	txn := s.Begin()
	txn.Delete(table, key)
	return txn.Commit()
}

// StoreStats summarizes the store's state.
type StoreStats struct {
	// Tables is the number of named tables.
	Tables int
	// Keys is the total key count across tables.
	Keys int
	// WALBytes is the current write-ahead log size.
	WALBytes int64
	// CheckpointBytes is the size of the last durable checkpoint (0 if
	// none has been written yet).
	CheckpointBytes int64
}

// Stat reports store statistics.
func (s *Store) Stat() StoreStats {
	s.mu.RLock()
	st := StoreStats{Tables: len(s.tables)}
	for _, t := range s.tables {
		st.Keys += t.Len()
	}
	s.mu.RUnlock()
	s.walMu.Lock()
	st.WALBytes = s.log.size
	s.walMu.Unlock()
	if size, err := s.fs.Size(filepath.Join(s.dir, "checkpoint.db")); err == nil {
		st.CheckpointBytes = size
	}
	return st
}

// Checkpoint writes a durable snapshot of all tables and truncates the WAL.
func (s *Store) Checkpoint() error {
	start := time.Now()
	// Serialize with commits so the snapshot matches a WAL prefix.
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.writeAllowed(); err != nil {
		return err
	}
	if err := s.log.sync(); err != nil {
		// The WAL's durable contents are now unknown; freeze writes.
		s.poison(err)
		return err
	}
	walBytes := s.log.size
	s.mu.RLock()
	err := writeCheckpoint(s.fs, s.dir, s.nextTxn, s.tables)
	s.mu.RUnlock()
	if err != nil {
		// A failed snapshot attempt is recoverable without poisoning: the
		// rename never replaced the old checkpoint (or its durability is
		// ambiguous, in which case both old and new are valid bases for the
		// still-intact WAL), so the store keeps running on the synced log.
		s.opts.Logger.Error("checkpoint failed", "dir", s.dir, "err", err.Error())
		return err
	}
	if err := s.log.reset(); err != nil {
		// A half-truncated log whose sync failed leaves future appends at an
		// unknowable durable offset; freeze writes.
		s.poison(err)
		return err
	}
	s.opts.Logger.Info("checkpoint written",
		"dir", s.dir,
		"wal_bytes_truncated", walBytes,
		"next_txn", s.nextTxn,
		"elapsed", time.Since(start).String())
	return nil
}

// Txn is a write transaction: a buffered batch of puts and deletes applied
// atomically at Commit. Reads through the transaction observe its own
// pending writes. A Txn is not safe for concurrent use.
type Txn struct {
	s    *Store
	ops  []walOp
	done bool
	// pending indexes the latest op per table/key for read-your-writes.
	pending map[string]map[string]int
}

// Begin starts a transaction.
func (s *Store) Begin() *Txn {
	return &Txn{s: s, pending: make(map[string]map[string]int)}
}

func (t *Txn) record(op walOp) {
	t.ops = append(t.ops, op)
	m := t.pending[op.table]
	if m == nil {
		m = make(map[string]int)
		t.pending[op.table] = m
	}
	m[string(op.key)] = len(t.ops) - 1
}

// Put buffers a write of key → value in table.
func (t *Txn) Put(table string, key, value []byte) {
	t.record(walOp{
		kind:  opPut,
		table: table,
		key:   append([]byte(nil), key...),
		val:   append([]byte(nil), value...),
	})
}

// Delete buffers a removal of key from table.
func (t *Txn) Delete(table string, key []byte) {
	t.record(walOp{kind: opDelete, table: table, key: append([]byte(nil), key...)})
}

// Get reads through the transaction: pending writes shadow the store.
func (t *Txn) Get(table string, key []byte) ([]byte, bool) {
	if m := t.pending[table]; m != nil {
		if i, ok := m[string(key)]; ok {
			op := t.ops[i]
			if op.kind == opDelete {
				return nil, false
			}
			return op.val, true
		}
	}
	return t.s.Get(table, key)
}

// Commit logs the batch, applies it to the tables, and (depending on the
// sync policy) makes it durable. Committing an empty transaction is a
// no-op. A transaction may be committed at most once.
func (t *Txn) Commit() error {
	if t.done {
		return errors.New("kvstore: transaction already finished")
	}
	t.done = true
	if len(t.ops) == 0 {
		return nil
	}
	s := t.s

	// Log append and in-memory apply happen under walMu so that the
	// in-memory application order always matches the WAL order (replay
	// after a crash must converge to the same state).
	s.walMu.Lock()
	if err := s.writeAllowed(); err != nil {
		s.walMu.Unlock()
		return err
	}
	rec := &walRecord{txnID: s.nextTxn, ops: t.ops}
	s.nextTxn++
	if err := s.log.append(rec); err != nil {
		// A short append leaves a torn record in the buffer; anything
		// flushed after it would be garbage. Freeze writes.
		s.poison(err)
		s.walMu.Unlock()
		return err
	}
	var err error
	if s.opts.Sync == SyncEveryCommit {
		err = s.log.sync()
	} else {
		err = s.log.flush()
	}
	if err != nil {
		// The record's durable fate is unknown (failed fsync may have
		// dropped dirty pages); freeze writes rather than diverge.
		s.poison(err)
		s.walMu.Unlock()
		return err
	}
	s.mu.Lock()
	s.applyRecord(rec)
	s.mu.Unlock()
	needCkpt := s.log.size >= s.opts.CheckpointBytes
	s.walMu.Unlock()

	if needCkpt {
		return s.Checkpoint()
	}
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.done = true
	t.ops = nil
	t.pending = nil
}
