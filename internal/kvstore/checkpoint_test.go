package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitCheckpoint returns once no checkpoint is in flight.
func waitCheckpoint(s *Store) {
	s.ckptMu.Lock()
	s.ckptMu.Unlock()
}

// holdSync makes fs block every Sync of the file named name until the
// returned release is called; held receives once per blocked Sync.
func holdSync(fs *FaultFS, name string) (held <-chan struct{}, release func()) {
	h := make(chan struct{}, 16) // room for every Sync a test lets through after release
	gate := make(chan struct{})
	fs.async = true
	fs.beforeSync = func(n string) {
		if n == name {
			h <- struct{}{}
			<-gate
		}
	}
	return h, func() { close(gate) }
}

// holdRetiredSync blocks the first Sync of the live log's name until the
// returned release is called: under SyncPeriodic with an hour's interval,
// that is the checkpoint writer's fsync of the retired log, whose fd still
// carries its first name. held receives once, when the Sync blocks.
func holdRetiredSync(fs *FaultFS) (held <-chan struct{}, release func()) {
	h, gate := make(chan struct{}, 1), make(chan struct{})
	var first atomic.Bool
	fs.async = true
	fs.beforeSync = func(n string) {
		if n == "db/"+liveLog && first.CompareAndSwap(false, true) {
			h <- struct{}{}
			<-gate
		}
	}
	return h, func() { close(gate) }
}

func putN(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Put("t", []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

func checkN(t *testing.T, s *Store, n int) {
	t.Helper()
	if got := s.Len("t"); got != n {
		t.Fatalf("store holds %d keys, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := s.Get("t", []byte(fmt.Sprintf("k%04d", i))); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d = %q, %v", i, v, ok)
		}
	}
}

// TestCommitsProceedDuringCheckpoint: while the background checkpoint is
// stuck in the snapshot file's Sync, commits succeed and are readable; once
// it finishes, the retired log is gone and a power cut followed by a reopen
// lands on every acknowledged commit.
func TestCommitsProceedDuringCheckpoint(t *testing.T) {
	fs := NewFaultFS(3)
	held, release := holdSync(fs, "db/checkpoint.tmp")
	s, err := Open(tortureOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for started := false; !started; n++ {
		putN(t, s, n, n+1)
		select {
		case <-held:
			started = true
		default:
		}
		if n > 1000 {
			t.Fatal("no checkpoint started")
		}
	}
	putN(t, s, n, n+200) // several thresholds' worth, behind one checkpoint
	n += 200
	checkN(t, s, n)
	if _, err := fs.Size("db/" + prevLog); err != nil {
		t.Fatalf("retired log missing while its checkpoint is in flight: %v", err)
	}
	release()
	waitCheckpoint(s)
	if _, err := fs.Size("db/" + prevLog); err == nil {
		t.Fatal("retired log left behind after its checkpoint")
	}
	putN(t, s, n, n+10)
	n += 10
	fs.CrashNow()
	if err := s.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("close after power cut = %v", err)
	}
	fs.Reboot()
	s2, err := Open(tortureOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkN(t, s2, n)
}

// TestCloseJoinsCheckpoint: Close waits for a checkpoint in flight, which
// then completes: the snapshot is in place and the retired log removed.
func TestCloseJoinsCheckpoint(t *testing.T) {
	fs := NewFaultFS(4)
	held, release := holdSync(fs, "db/checkpoint.tmp")
	s, err := Open(tortureOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for len(held) == 0 {
		putN(t, s, n, n+1)
		n++
	}
	closed := make(chan error)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a checkpoint was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Size("db/checkpoint.db"); err != nil {
		t.Fatalf("no checkpoint after Close: %v", err)
	}
	if _, err := fs.Size("db/" + prevLog); err == nil {
		t.Fatal("retired log left behind after Close")
	}
	s2, err := Open(tortureOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkN(t, s2, n)
}

// TestRecoveryDropsLiveLogPastRetiredGap: under SyncPeriodic the retired
// log is synced by the checkpoint writer while commits go on in the new
// one. A power cut while that sync is stuck, after the new log has been
// synced, may keep the new log's records and lose the retired log's last
// ones; recovery must land on exactly a committed prefix, dropping the new
// log's records whenever the retired log lost any.
func TestRecoveryDropsLiveLogPastRetiredGap(t *testing.T) {
	gaps := 0
	for seed := int64(1); seed <= 8; seed++ {
		txns := makeTortureWorkload(rand.New(rand.NewSource(seed)), 150)
		states := prefixStates(txns)
		fs := NewFaultFS(seed)
		held, release := holdRetiredSync(fs)
		opts := tortureOptions(fs)
		opts.Sync, opts.SyncInterval = SyncPeriodic, time.Hour
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		attempted, behind := 0, -1
		for i, ops := range txns {
			txn := s.Begin()
			for _, op := range ops {
				if op.del {
					txn.Delete(op.table, []byte(op.key))
				} else {
					txn.Put(op.table, []byte(op.key), []byte(op.val))
				}
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("seed %d txn %d: %v", seed, i, err)
			}
			attempted = i + 1
			if behind < 0 && len(held) > 0 {
				behind = 0
			}
			if behind >= 0 {
				if behind++; behind == 10 {
					break // ten commits behind the stuck sync
				}
			}
		}
		select {
		case <-held:
		case <-time.After(5 * time.Second):
			t.Fatalf("seed %d: no rotation in %d commits", seed, attempted)
		}
		s.walMu.Lock()
		err = s.log.sync() // the new log reaches the disk before the retired one
		s.walMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		fs.CrashNow()
		release()
		_ = s.Close() // crashed: the error is expected
		fs.Reboot()
		s2, err := Open(opts)
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		ks := matchPrefixes(states, dumpState(s2))
		switch {
		case slices.Contains(ks, attempted):
		case len(ks) > 0 && ks[0] <= attempted-10:
			gaps++
		default:
			t.Fatalf("seed %d: recovered state matches prefixes %v, want %d or one of 0..%d", seed, ks, attempted, attempted-10)
		}
		s2.Close()
	}
	if gaps == 0 {
		t.Fatal("no seed lost records of the retired log: the gap was never recovered from")
	}
}

// TestProcessCrashDuringCheckpointKeepsCommits: under SyncPeriodic every
// commit reaches the log file before it is acknowledged, also while the
// retired log's fsync is in flight, so a process that dies then (the page
// cache survives) recovers every acknowledged commit.
func TestProcessCrashDuringCheckpointKeepsCommits(t *testing.T) {
	fs := NewFaultFS(5)
	held, release := holdRetiredSync(fs)
	opts := tortureOptions(fs)
	opts.Sync, opts.SyncInterval = SyncPeriodic, time.Hour
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 200 // past the threshold several times
	putN(t, s, 0, n)
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("no checkpoint started")
	}
	putN(t, s, n, n+50)
	n += 50
	s2, err := Open(opts) // what a restart after the process died reads
	if err != nil {
		t.Fatal(err)
	}
	checkN(t, s2, n)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	release()
	_ = s.Close()
}

// TestTortureCoversCheckpointSteps: the torture workload's clean run goes
// through every step of a checkpoint — the log rotation, the snapshot's
// rename and the retired log's removal — several times, in the same
// operation sequence on every run of a seed, so TestCrashTorture faults each
// of them in every mode.
func TestTortureCoversCheckpointSteps(t *testing.T) {
	txns := makeTortureWorkload(rand.New(rand.NewSource(1)), 100)
	a, b := NewFaultFS(1), NewFaultFS(1)
	runTortureWorkload(a, txns)
	runTortureWorkload(b, txns)
	if !slices.Equal(a.trace, b.trace) {
		t.Fatal("two runs of one seed took different operation sequences")
	}
	for _, step := range []string{"rename db/" + liveLog, "rename db/checkpoint.tmp", "remove db/" + prevLog} {
		n := 0
		for _, op := range a.trace {
			if op == step {
				n++
			}
		}
		if n < 3 {
			t.Errorf("%q ran %d times, want at least 3:\n%s", step, n, strings.Join(a.trace, "\n"))
		}
	}
}
