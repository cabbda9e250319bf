package evaltool

import (
	"context"
	"net"
	"testing"

	"ferret/internal/core"
	"ferret/internal/protocol"
	"ferret/internal/server"
)

func TestRemoteRunner(t *testing.T) {
	engine, sets := buildEngine(t)
	srv := &server.Server{Engine: engine, DefaultK: 10}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	t.Cleanup(func() { srv.Close() })
	client, err := protocol.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	r := &RemoteRunner{Client: client, Params: protocol.QueryParams{Mode: "bruteforce"}}
	rep, err := r.Run(sets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 5 {
		t.Fatalf("ran %d queries", rep.Queries)
	}
	if rep.AvgPrecision < 0.95 {
		t.Fatalf("remote quality %s", rep)
	}
	if rep.DatasetSize != 20 {
		t.Fatalf("dataset size %d", rep.DatasetSize)
	}
	if rep.P95QueryTime <= 0 {
		t.Fatal("no latency percentiles")
	}

	// The remote report must agree with the in-process runner.
	local := &Runner{Engine: engine, Options: core.QueryOptions{Mode: core.BruteForceOriginal}}
	lrep, err := local.Run(sets)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.AvgPrecision != rep.AvgPrecision {
		t.Fatalf("remote %.3f vs local %.3f avg precision", rep.AvgPrecision, lrep.AvgPrecision)
	}

	// Unknown keys are skipped, not fatal.
	rep, err = r.Run([][]string{{"ghost1", "ghost2"}})
	if err != nil || rep.Skipped != 1 {
		t.Fatalf("ghost set: %v skipped=%d", err, rep.Skipped)
	}
	// Singleton sets skipped too.
	rep, _ = r.Run([][]string{{"only"}})
	if rep.Skipped != 1 {
		t.Fatalf("singleton skipped=%d", rep.Skipped)
	}
}

// TestLocalAndRemoteScoreAlike runs one benchmark file in process and over
// loopback and requires equal reports. The file lists a member the
// database does not hold behind a present query key (it is gold, never
// retrieved), and a set whose query key is unknown (skipped).
func TestLocalAndRemoteScoreAlike(t *testing.T) {
	engine, sets := buildEngine(t)
	sets[0] = append(sets[0], "c0/never-ingested")
	sets = append(sets, []string{"ghost/q", "c1/m0"})
	srv := &server.Server{Engine: engine, DefaultK: 10}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	t.Cleanup(func() { srv.Close() })
	client, err := protocol.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	for _, mode := range []string{"bruteforce", "sketch", "filtering"} {
		m, err := core.ParseMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		local, err := (&Runner{Engine: engine, Options: core.QueryOptions{Mode: m}}).Run(sets)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := (&RemoteRunner{Client: client, Params: protocol.QueryParams{Mode: mode}}).Run(sets)
		if err != nil {
			t.Fatal(err)
		}
		if local.QualityStats != remote.QualityStats || local.Skipped != remote.Skipped || local.DatasetSize != remote.DatasetSize {
			t.Fatalf("mode %s: in process %s, over loopback %s", mode, local, remote)
		}
		if local.Queries != 5 || local.Skipped != 1 {
			t.Fatalf("mode %s: %s, want 5 queries and 1 skipped set", mode, local)
		}
		if local.AvgFirstTier == 1 {
			t.Fatalf("mode %s: the missing member scored as found: %s", mode, local)
		}
	}
}
