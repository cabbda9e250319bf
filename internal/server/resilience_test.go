package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ferret/internal/core"
	"ferret/internal/object"
	"ferret/internal/protocol"
	"ferret/internal/sketch"
)

// startConfiguredServer is startServer with control over the server's
// resilience policy. It returns the server and its address; clients are
// dialed by the tests themselves.
func startConfiguredServer(t *testing.T, configure func(*Server)) (*Server, *core.Engine, string) {
	t.Helper()
	const d = 6
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	engine, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Sketch: sketch.Params{N: 128, K: 1, Min: min, Max: max, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	for c := 0; c < 3; c++ {
		for m := 0; m < 4; m++ {
			vec := make([]float32, d)
			for i := range vec {
				vec[i] = float32(c)/3 + float32(m)*0.01 + float32(i)*0.001
			}
			o := object.Single(fmt.Sprintf("c%d/m%d", c, m), vec)
			if _, err := engine.Ingest(o, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := &Server{Engine: engine, DefaultK: 5}
	if configure != nil {
		configure(srv)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	t.Cleanup(func() { srv.Close() })
	return srv, engine, l.Addr().String()
}

func dialTest(t *testing.T, addr string) *protocol.Client {
	t.Helper()
	client, err := protocol.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestDegradedQueryOverWire drives a budget through the whole stack: the
// client requests a nanosecond budget, the engine degrades, and the
// degraded flag comes back on the OK head line.
func TestDegradedQueryOverWire(t *testing.T) {
	_, engine, addr := startConfiguredServer(t, nil)
	client := dialTest(t, addr)
	results, meta, err := client.QueryMeta("c1/m0", protocol.QueryParams{K: 3, Budget: time.Nanosecond})
	if err != nil {
		t.Fatalf("budgeted query: %v", err)
	}
	if !meta.Degraded {
		t.Fatal("nanosecond budget did not produce a degraded response")
	}
	if len(results) == 0 {
		t.Fatal("degraded response carried no results")
	}
	if got := engine.Telemetry().Value("ferret_queries_degraded_total"); got < 1 {
		t.Fatalf("ferret_queries_degraded_total = %v, want >= 1", got)
	}
}

// TestServerBudgetAppliesWithoutClientOptIn pins the server-side default:
// a QueryBudget configured on the server degrades queries from clients
// that never heard of budgets.
func TestServerBudgetAppliesWithoutClientOptIn(t *testing.T) {
	_, _, addr := startConfiguredServer(t, func(s *Server) { s.QueryBudget = time.Nanosecond })
	client := dialTest(t, addr)
	_, meta, err := client.QueryMeta("c1/m0", protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !meta.Degraded {
		t.Fatal("server QueryBudget did not degrade the query")
	}
}

// TestUnbudgetedQueryNotDegraded guards against the flag leaking onto
// ordinary answers.
func TestUnbudgetedQueryNotDegraded(t *testing.T) {
	_, _, addr := startConfiguredServer(t, nil)
	client := dialTest(t, addr)
	results, meta, err := client.QueryMeta("c1/m0", protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Degraded {
		t.Fatal("unbudgeted query came back degraded")
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
}

// TestMaxConnsSheds asserts the connection limit: the over-limit client
// gets exactly one BUSY error, the shed counter moves, and capacity frees
// up once the first client hangs up.
func TestMaxConnsSheds(t *testing.T) {
	_, engine, addr := startConfiguredServer(t, func(s *Server) { s.MaxConns = 1 })
	first := dialTest(t, addr)
	if err := first.Ping(); err != nil {
		t.Fatal(err)
	}
	second := dialTest(t, addr)
	second.SetTimeout(5 * time.Second)
	err := second.Ping()
	if err == nil {
		t.Fatal("over-limit connection served a request")
	}
	if !strings.Contains(err.Error(), "BUSY") {
		t.Fatalf("shed error %q does not announce BUSY", err)
	}
	if got := engine.Telemetry().Value("ferret_conns_shed_total"); got != 1 {
		t.Fatalf("ferret_conns_shed_total = %v, want 1", got)
	}
	// Capacity frees up when the first connection closes.
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		third, err := protocol.DialTimeout(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		third.SetTimeout(time.Second)
		err = third.Ping()
		third.Close()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection slot never freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadTimeoutClosesIdleConnections asserts the idle-connection
// deadline: a connection that sends nothing for longer than ReadTimeout is
// closed by the server.
func TestReadTimeoutClosesIdleConnections(t *testing.T) {
	_, _, addr := startConfiguredServer(t, func(s *Server) { s.ReadTimeout = 100 * time.Millisecond })
	client := dialTest(t, addr)
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	client.SetTimeout(2 * time.Second)
	if err := client.Ping(); err == nil {
		t.Fatal("idle connection survived the read timeout")
	}
}

// TestShutdownDrainsInFlight asserts graceful drain: a request in flight
// when Shutdown starts completes and is answered; an idle connection is
// closed immediately; the counts tell them apart.
func TestShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	extract := func(path string) (object.Object, error) {
		close(started)
		time.Sleep(300 * time.Millisecond)
		vec := []float32{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
		return object.Single("query-obj", vec), nil
	}
	srv, _, addr := startConfiguredServer(t, func(s *Server) { s.Extract = extract })
	busyClient := dialTest(t, addr)
	idleClient := dialTest(t, addr)
	if err := idleClient.Ping(); err != nil {
		t.Fatal(err)
	}
	// A connection stays busy until its handler returns, which is after the
	// client has read the response: let both settle before telling them apart.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		busy := 0
		srv.mu.Lock()
		for _, st := range srv.conns {
			if st.busy.Load() {
				busy++
			}
		}
		srv.mu.Unlock()
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still busy with nothing in flight", busy)
		}
	}

	var wg sync.WaitGroup
	var queryErr error
	var queryResults []protocol.Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		queryResults, queryErr = busyClient.QueryFile("whatever", protocol.QueryParams{K: 3})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained, aborted, err := srv.Shutdown(ctx)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if drained != 1 || aborted != 0 {
		t.Fatalf("drained=%d aborted=%d, want 1/0", drained, aborted)
	}
	wg.Wait()
	if queryErr != nil {
		t.Fatalf("drained query failed: %v", queryErr)
	}
	if len(queryResults) == 0 {
		t.Fatal("drained query returned no results")
	}
}

// TestShutdownAbortsAfterGrace asserts the other side of the drain window:
// a request still running when the grace expires is aborted and counted.
func TestShutdownAbortsAfterGrace(t *testing.T) {
	started := make(chan struct{})
	extract := func(path string) (object.Object, error) {
		close(started)
		time.Sleep(500 * time.Millisecond)
		vec := []float32{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
		return object.Single("query-obj", vec), nil
	}
	srv, _, addr := startConfiguredServer(t, func(s *Server) { s.Extract = extract })
	busyClient := dialTest(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := busyClient.QueryFile("whatever", protocol.QueryParams{K: 3})
		done <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	drained, aborted, err := srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil error after grace expiry")
	}
	if aborted != 1 || drained != 0 {
		t.Fatalf("drained=%d aborted=%d, want 0/1", drained, aborted)
	}
	if qerr := <-done; qerr == nil {
		t.Fatal("aborted query reported success to the client")
	}
}

// TestServeStopsOnContextCancel asserts Serve's accept loop honors its
// context.
func TestServeStopsOnContextCancel(t *testing.T) {
	engineDir := t.TempDir()
	min := make([]float32, 6)
	max := []float32{1, 1, 1, 1, 1, 1}
	engine, err := core.Open(core.Config{Dir: engineDir, Sketch: sketch.Params{N: 128, K: 1, Min: min, Max: max, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := &Server{Engine: engine}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx, l) }()
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Serve returned nil after context cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not stop after context cancel")
	}
}
