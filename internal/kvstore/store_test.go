package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreBasicCRUD(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	if err := s.Put("t", []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("t", []byte("k1"))
	if !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if _, ok := s.Get("t", []byte("nope")); ok {
		t.Fatal("missing key found")
	}
	if _, ok := s.Get("missing-table", []byte("k1")); ok {
		t.Fatal("missing table found key")
	}
	if err := s.Delete("t", []byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("t", []byte("k1")); ok {
		t.Fatal("deleted key still present")
	}
}

func TestStoreOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with empty dir succeeded")
	}
}

func TestTxnAtomicityAcrossTables(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	txn := s.Begin()
	txn.Put("features", []byte("obj1"), []byte("fv"))
	txn.Put("sketches", []byte("obj1"), []byte("sk"))
	txn.Put("attrs", []byte("obj1"), []byte("at"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// After reopen, all three tables must be present together.
	s2 := openTestStore(t, dir)
	defer s2.Close()
	for _, table := range []string{"features", "sketches", "attrs"} {
		if _, ok := s2.Get(table, []byte("obj1")); !ok {
			t.Fatalf("table %s lost the committed key", table)
		}
	}
}

func TestTxnReadYourWrites(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	if err := s.Put("t", []byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	txn := s.Begin()
	txn.Put("t", []byte("k"), []byte("new"))
	if v, ok := txn.Get("t", []byte("k")); !ok || string(v) != "new" {
		t.Fatalf("txn.Get = %q %v, want new", v, ok)
	}
	// Store still sees old value before commit.
	if v, _ := s.Get("t", []byte("k")); string(v) != "old" {
		t.Fatalf("store leaked uncommitted write: %q", v)
	}
	txn.Delete("t", []byte("k"))
	if _, ok := txn.Get("t", []byte("k")); ok {
		t.Fatal("txn sees key it deleted")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("t", []byte("k")); ok {
		t.Fatal("delete not applied at commit")
	}
}

func TestTxnAbort(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	txn := s.Begin()
	txn.Put("t", []byte("k"), []byte("v"))
	txn.Abort()
	if _, ok := s.Get("t", []byte("k")); ok {
		t.Fatal("aborted write visible")
	}
}

func TestTxnDoubleCommit(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	txn := s.Begin()
	txn.Put("t", []byte("k"), []byte("v"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("second commit succeeded")
	}
}

func TestEmptyTxnCommit(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	if err := s.Begin().Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for i := 0; i < 100; i++ {
		if err := s.Put("t", []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: do not Close (the WAL is synced per commit).
	s.log.f.Close()

	s2 := openTestStore(t, dir)
	defer s2.Close()
	if n := s2.Len("t"); n != 100 {
		t.Fatalf("recovered %d keys, want 100", n)
	}
	for i := 0; i < 100; i++ {
		v, ok := s2.Get("t", []byte(fmt.Sprintf("k%03d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v", i, v, ok)
		}
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for i := 0; i < 50; i++ {
		s.Put("a", []byte(fmt.Sprintf("k%d", i)), []byte("before"))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// WAL must be empty after checkpoint.
	if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() != 0 {
		t.Fatalf("wal after checkpoint: %v size %d", err, st.Size())
	}
	// More updates after the checkpoint land in the WAL.
	for i := 0; i < 25; i++ {
		s.Put("a", []byte(fmt.Sprintf("k%d", i)), []byte("after"))
	}
	s.log.f.Close() // crash

	s2 := openTestStore(t, dir)
	defer s2.Close()
	if n := s2.Len("a"); n != 50 {
		t.Fatalf("recovered %d keys, want 50", n)
	}
	for i := 0; i < 50; i++ {
		v, _ := s2.Get("a", []byte(fmt.Sprintf("k%d", i)))
		want := "before"
		if i < 25 {
			want = "after"
		}
		if string(v) != want {
			t.Fatalf("key %d = %q, want %q", i, v, want)
		}
	}
}

// TestTornWALTail cuts the WAL at every possible byte offset within the
// final record and verifies that recovery never exposes a partial
// transaction: either the whole last transaction is present or none of it;
// and that a commit after the recovery survives the next one.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	// One committed transaction that must always survive.
	base := s.Begin()
	base.Put("t", []byte("stable"), []byte("yes"))
	if err := base.Commit(); err != nil {
		t.Fatal(err)
	}
	// A second multi-op transaction that will be torn.
	txn := s.Begin()
	txn.Put("t", []byte("x1"), []byte("v1"))
	txn.Put("t", []byte("x2"), []byte("v2"))
	txn.Delete("t", []byte("stable-not-there"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: cutDir})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		_, has1 := s2.Get("t", []byte("x1"))
		_, has2 := s2.Get("t", []byte("x2"))
		if has1 != has2 {
			t.Fatalf("cut %d: partial transaction visible (x1=%v x2=%v)", cut, has1, has2)
		}
		// A commit after recovery must survive the next one: it may not be
		// appended behind the torn bytes replay stops at.
		if err := s2.Put("t", []byte("after"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3 := openTestStore(t, cutDir)
		if _, ok := s3.Get("t", []byte("after")); !ok {
			t.Fatalf("cut %d: a commit made after recovering a torn log was lost", cut)
		}
		s3.Close()
	}
}

// TestCorruptWALMiddle flips a byte inside the first record: replay must
// stop there and keep the store openable and consistent.
func TestCorruptWALMiddle(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	s.Put("t", []byte("a"), []byte("1"))
	s.Put("t", []byte("b"), []byte("2"))
	s.Close()
	walPath := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(walPath)
	data[12] ^= 0xFF // corrupt first record's payload
	os.WriteFile(walPath, data, 0o644)

	s2 := openTestStore(t, dir)
	defer s2.Close()
	// Both records dropped: the corrupt one and everything after it.
	if _, ok := s2.Get("t", []byte("a")); ok {
		t.Fatal("corrupt record survived")
	}
	if _, ok := s2.Get("t", []byte("b")); ok {
		t.Fatal("record after corruption survived")
	}
	// The reopened store must still accept writes.
	if err := s2.Put("t", []byte("c"), []byte("3")); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptCheckpointRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	s.Put("t", []byte("a"), []byte("1"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "checkpoint.db")
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("open succeeded with corrupt checkpoint")
	}
}

// TestReplayIdempotentOverCheckpoint: a crash between checkpoint rename and
// WAL truncation leaves a WAL whose records are already in the checkpoint;
// replaying them on top must be harmless.
func TestReplayIdempotentOverCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	s.Put("t", []byte("k"), []byte("v1"))
	s.Put("t", []byte("k"), []byte("v2"))
	s.Put("t", []byte("gone"), []byte("x"))
	s.Delete("t", []byte("gone"))
	// Write the checkpoint but keep the WAL (simulates crash pre-truncate).
	s.walMu.Lock()
	if err := s.log.sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	err := writeCheckpoint(s.fs, s.dir, s.nextTxn, s.tables)
	s.mu.RUnlock()
	s.walMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTestStore(t, dir)
	defer s2.Close()
	if v, _ := s2.Get("t", []byte("k")); string(v) != "v2" {
		t.Fatalf("k = %q, want v2", v)
	}
	if _, ok := s2.Get("t", []byte("gone")); ok {
		t.Fatal("deleted key resurrected by overlapping replay")
	}
	if n := s2.Len("t"); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestScanAndTables(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Put("scan", []byte(fmt.Sprintf("%02d", i)), []byte{byte(i)})
	}
	var keys []string
	s.Scan("scan", []byte("05"), []byte("10"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if len(keys) != 5 || keys[0] != "05" || keys[4] != "09" {
		t.Fatalf("scan = %v", keys)
	}
	// Scan of a missing table is a no-op.
	s.Scan("nope", nil, nil, func(k, v []byte) bool { t.Fatal("visited"); return false })
	found := false
	for _, name := range s.Tables() {
		if name == "scan" {
			found = true
		}
	}
	if !found {
		t.Fatal("Tables() missing 'scan'")
	}
}

func TestAutoCheckpointOnWALGrowth(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, CheckpointBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 32; i++ {
		if err := s.Put("t", []byte(fmt.Sprintf("k%d", i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Automatic checkpoints run in the background: once none is in flight,
	// the log holds only what came after the last one's rotation, and the
	// retired log is gone.
	waitCheckpoint(s)
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if written := int64(32 * len(payload)); st.Size() >= written {
		t.Fatalf("wal size %d after %d bytes of values; auto checkpoint did not run", st.Size(), written)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.db")); err != nil {
		t.Fatalf("no checkpoint file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.prev.log")); err == nil {
		t.Fatal("retired log left behind")
	}
}

func TestPeriodicSyncMode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncPeriodic, SyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("t", []byte("k"), []byte("v"))
	time.Sleep(50 * time.Millisecond) // let the background sync run
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir)
	defer s2.Close()
	if _, ok := s2.Get("t", []byte("k")); !ok {
		t.Fatal("periodic-sync commit lost after clean close")
	}
}

func TestConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				txn := s.Begin()
				key := []byte(fmt.Sprintf("g%d-k%d", g, i))
				txn.Put("t", key, []byte("v"))
				txn.Put("u", key, []byte("w"))
				if err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
				// Interleave reads.
				s.Get("t", key)
			}
		}(g)
	}
	wg.Wait()
	if n := s.Len("t"); n != goroutines*perG {
		t.Fatalf("t has %d keys, want %d", n, goroutines*perG)
	}
	s.Close()
	// Recovery must see the same state.
	s2 := openTestStore(t, dir)
	defer s2.Close()
	if n := s2.Len("u"); n != goroutines*perG {
		t.Fatalf("u recovered %d keys, want %d", n, goroutines*perG)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	rec := &walRecord{txnID: 42, ops: []walOp{
		{kind: opPut, table: "features", key: []byte("k1"), val: []byte("v1")},
		{kind: opDelete, table: "attrs", key: []byte("k2")},
		{kind: opPut, table: "t", key: []byte{}, val: []byte{}},
	}}
	got, err := decodeWALRecord(rec.appendTo(nil)[8:])
	if err != nil {
		t.Fatal(err)
	}
	if got.txnID != 42 || len(got.ops) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.ops[0].table != "features" || string(got.ops[0].val) != "v1" {
		t.Fatalf("op 0: %+v", got.ops[0])
	}
	if got.ops[1].kind != opDelete || string(got.ops[1].key) != "k2" {
		t.Fatalf("op 1: %+v", got.ops[1])
	}
}

func TestWALRecordDecodeErrors(t *testing.T) {
	rec := &walRecord{txnID: 1, ops: []walOp{{kind: opPut, table: "t", key: []byte("k"), val: []byte("v")}}}
	enc := rec.appendTo(nil)[8:]
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeWALRecord(enc[:cut]); err == nil && cut < len(enc) {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[12] = 99 // unknown op kind
	if _, err := decodeWALRecord(bad); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	if _, err := decodeWALRecord(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestStoreStat(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	defer s.Close()
	s.Put("a", []byte("k1"), []byte("v"))
	s.Put("a", []byte("k2"), []byte("v"))
	s.Put("b", []byte("k1"), []byte("v"))
	st := s.Stat()
	if st.Tables != 2 || st.Keys != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.WALBytes == 0 {
		t.Fatal("WAL size not reported")
	}
	if st.CheckpointBytes != 0 {
		t.Fatal("phantom checkpoint size")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = s.Stat()
	if st.WALBytes != 0 || st.CheckpointBytes == 0 {
		t.Fatalf("post-checkpoint stats %+v", st)
	}
}

func TestDoubleCloseIsSafe(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCommitSingleOp(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncPeriodic})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 128)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Put("t", []byte(fmt.Sprintf("k%d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRetainedValuesStayUnchanged is the retention contract of Get and Scan:
// a value slice handed out keeps its bytes across overwrites and deletes of
// its key and its neighbours (node splits, borrows and merges) and across a
// checkpoint.
func TestRetainedValuesStayUnchanged(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	const n = 500 // several levels of 63-key nodes
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	val := func(i, gen int) []byte { return bytes.Repeat([]byte{byte(i), byte(gen)}, 1+i%7) }
	for i := 0; i < n; i++ {
		if err := s.Put("t", key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]byte, n)
	for i := 0; i < n; i += 2 {
		got[i], _ = s.Get("t", key(i))
	}
	i := 1
	s.Scan("t", nil, nil, func(k, v []byte) bool {
		if bytes.Equal(k, key(i)) {
			got[i] = v
			i += 2
		}
		return true
	})
	for i := 0; i < n; i++ {
		var err error
		switch i % 3 {
		case 0:
			err = s.Put("t", key(i), val(i, 1))
		case 1:
			err = s.Delete("t", key(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := n; i < 2*n; i++ {
		if err := s.Put("t", key(i), val(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range got {
		if !bytes.Equal(v, val(i, 0)) {
			t.Fatalf("retained value of %s is %v, was %v", key(i), v, val(i, 0))
		}
	}
}
