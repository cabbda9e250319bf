// Package kvstore is an embedded, transactional key-value store with named
// B-tree tables, a write-ahead log, background checkpointing and crash
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
	"bytes"
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
	// CheckpointBytes starts a background checkpoint once the WAL grows
	// past this size (0 means 64 MiB): the crossing commit only retires the
	// log and freezes the tables. Store.Checkpoint requests one explicitly.
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
// writes are serialized internally. Lock order: closeMu < ckptMu < walMu <
// mu (a commit holding walMu only ever tries ckptMu).
type Store struct {
	dir  string
	opts Options
	fs   FS

	mu     sync.RWMutex // guards tables and all btree access
	tables map[string]*btree

	walMu   sync.Mutex // serializes log appends, rotation and snapshots
	log     *wal
	nextTxn uint64

	// ckptMu admits one checkpoint at a time: Checkpoint holds it, a
	// crossing commit TryLocks it for the goroutine writing the snapshot.
	ckptMu sync.Mutex
	// prevLive (under ckptMu): wal.prev.log holds records no durable
	// checkpoint has, so no rotation may replace it.
	prevLive bool
	// joinCheckpoints: the commit that starts a checkpoint waits for it, so
	// a FaultFS run's operation sequence does not depend on the scheduler.
	joinCheckpoints bool

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
	if ffs, ok := fs.(*FaultFS); ok {
		s.joinCheckpoints = !ffs.async
	}
	// The retired log first: a checkpoint in flight at the crash left it.
	prevApplied, prevMax, _, err := replayWAL(fs, s.path(prevLog), ckptTxn, func(r *walRecord) bool {
		s.applyRecord(r)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("kvstore: replaying %s: %w", prevLog, err)
	}
	_, err = fs.Size(s.path(prevLog))
	s.prevLive = err == nil
	// The live log continues the retired one without a gap. A power cut
	// can keep the live log's records and lose the retired log's last ones
	// (its fsync runs beside the commits, rotateLocked); the live log ends
	// where such a gap begins, so recovery lands on a committed prefix.
	s.nextTxn = max(ckptTxn, prevMax+1)
	applied, _, good, err := replayWAL(fs, s.path(liveLog), ckptTxn, func(r *walRecord) bool {
		if s.prevLive && r.txnID != s.nextTxn {
			return false
		}
		s.applyRecord(r)
		s.nextTxn = r.txnID + 1
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("kvstore: replaying %s: %w", liveLog, err)
	}
	opts.Logger.Info("store recovered",
		"dir", opts.Dir,
		"checkpoint_txn", ckptTxn,
		"wal_records", prevApplied+applied,
		"next_txn", s.nextTxn,
		"tables", len(tables))
	s.log, err = openWAL(fs, s.path(liveLog), good, fsyncs)
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

// The live log, and the one a checkpoint retired.
const (
	liveLog = "wal.log"
	prevLog = "wal.prev.log"
)

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

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
	s.ckptMu.Lock() // joins a checkpoint in flight
	defer s.ckptMu.Unlock()
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

// Put writes one key in its own transaction, taking ownership of key and
// value like Txn.Put.
func (s *Store) Put(table string, key, value []byte) error {
	txn := s.Begin()
	txn.Put(table, key, value)
	return txn.Commit()
}

// Delete removes one key in its own transaction, taking ownership of key.
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

// Checkpoint writes a durable snapshot of all tables and deletes the log
// records it covers. It waits for a checkpoint in flight, and returns once
// its snapshot is durable; commits proceed while it writes.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.walMu.Lock()
	ck, err := s.snapshotLocked()
	s.walMu.Unlock()
	if err != nil {
		return err
	}
	return s.writeSnapshot(ck)
}

// snapshot is a checkpoint on its way to disk: every table frozen at one
// transaction boundary, and the retired log when it is still to be synced.
type snapshot struct {
	txn     uint64
	tables  map[string]*btree
	retired *wal
	start   time.Time
}

// snapshotLocked retires the log (rotateLocked) unless wal.prev.log is
// live, and freezes every table. Caller holds ckptMu and walMu.
func (s *Store) snapshotLocked() (*snapshot, error) {
	if err := s.writeAllowed(); err != nil {
		return nil, err
	}
	ck := &snapshot{txn: s.nextTxn, tables: make(map[string]*btree, len(s.tables)), start: time.Now()}
	if !s.prevLive {
		var err error
		if ck.retired, err = s.rotateLocked(); err != nil {
			return nil, err
		}
	}
	for name, t := range s.tables {
		ck.tables[name] = t.snapshot()
	}
	return ck, nil
}

// rotateLocked renames the log to wal.prev.log and opens an empty wal.log.
// Under SyncEveryCommit the old log already is durable; otherwise
// rotateLocked returns it for writeSnapshot to sync. Commits go to the new
// log meanwhile, and a power cut may keep some of them while it loses the
// old log's last records: recovery (Open) then drops the new log's.
func (s *Store) rotateLocked() (retired *wal, err error) {
	if err := s.log.flush(); err != nil {
		s.poison(err)
		return nil, err
	}
	if err := s.fs.Rename(s.path(liveLog), s.path(prevLog)); err != nil {
		return nil, err // the log keeps its name and its records
	}
	s.prevLive = true
	next, err := openWAL(s.fs, s.path(liveLog), 0, s.log.fsyncs)
	if err == nil {
		retired, s.log = s.log, next
		// Commits acknowledged on a log whose name is not durable could vanish.
		err = syncDir(s.fs, s.dir)
	}
	if err != nil {
		s.poison(err)
		return nil, err
	}
	if s.opts.Sync == SyncEveryCommit {
		return nil, retired.f.Close()
	}
	return retired, nil
}

// writeSnapshot makes ck durable as checkpoint.db and removes the retired
// log. Caller holds ckptMu but not walMu, so commits go on.
func (s *Store) writeSnapshot(ck *snapshot) error {
	if old := ck.retired; old != nil {
		if err := errors.Join(old.fsync(), old.f.Close()); err != nil {
			s.poison(err) // the retired log's records may be lost
			return err
		}
	}
	if err := writeCheckpoint(s.fs, s.dir, ck.txn, ck.tables); err != nil {
		// Not fatal: the old checkpoint (or, if the rename's durability is
		// ambiguous, the new one) and the intact logs still recover the
		// state, and wal.prev.log stays live until a checkpoint covers it.
		s.opts.Logger.Error("checkpoint failed", "dir", s.dir, "err", err.Error())
		return err
	}
	// A removal that fails or that a crash undoes is harmless: recovery
	// skips records the checkpoint holds.
	s.prevLive = false
	if err := s.fs.Remove(s.path(prevLog)); err != nil {
		s.opts.Logger.Warn("removing the retired log failed", "dir", s.dir, "err", err.Error())
	}
	s.opts.Logger.Info("checkpoint written", "dir", s.dir, "next_txn", ck.txn, "elapsed", time.Since(ck.start).String())
	return nil
}

// Txn is a write transaction: a buffered batch of puts and deletes applied
// atomically at Commit. Reads through the transaction observe its own
// pending writes. A Txn is not safe for concurrent use.
type Txn struct {
	s    *Store
	ops  []walOp
	done bool
}

// Begin starts a transaction.
func (s *Store) Begin() *Txn {
	return &Txn{s: s}
}

// Put buffers a write of key → value in table. The transaction takes
// ownership of both slices: the caller must not modify them afterwards,
// since the store logs and keeps them as they are.
func (t *Txn) Put(table string, key, value []byte) {
	t.ops = append(t.ops, walOp{kind: opPut, table: table, key: key, val: value})
}

// Delete buffers a removal of key from table, taking ownership of key.
func (t *Txn) Delete(table string, key []byte) {
	t.ops = append(t.ops, walOp{kind: opDelete, table: table, key: key})
}

// Get reads through the transaction: its latest pending write of the key
// shadows the store.
func (t *Txn) Get(table string, key []byte) ([]byte, bool) {
	for i := len(t.ops) - 1; i >= 0; i-- {
		if op := &t.ops[i]; op.table == table && bytes.Equal(op.key, key) {
			return op.val, op.kind == opPut
		}
	}
	return t.s.Get(table, key)
}

// Commit logs the batch, applies it to the tables, and (depending on the
// sync policy) makes it durable. Committing an empty transaction is a
// no-op. A transaction may be committed at most once. The commit that grows
// the log past CheckpointBytes starts a checkpoint, which a Commit never
// writes.
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
	rec := walRecord{txnID: s.nextTxn, ops: t.ops}
	s.nextTxn++
	if err := s.log.append(&rec); err != nil {
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
	s.applyRecord(&rec)
	s.mu.Unlock()
	var ck *snapshot
	if s.log.size >= s.opts.CheckpointBytes && s.ckptMu.TryLock() {
		if ck, err = s.snapshotLocked(); err != nil {
			s.ckptMu.Unlock()
			// The commit itself is durable; the store logged or poisoned.
			s.opts.Logger.Error("starting a checkpoint failed", "dir", s.dir, "err", err.Error())
		}
	}
	s.walMu.Unlock()
	if ck != nil {
		finish := func() {
			defer s.ckptMu.Unlock()
			_ = s.writeSnapshot(ck) // logged; the commit stands either way
		}
		if s.joinCheckpoints {
			finish()
		} else {
			go finish()
		}
	}
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.done = true
	t.ops = nil
}
