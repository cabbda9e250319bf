package trace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ferret/internal/telemetry"
)

func TestIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id == 0 {
		t.Fatal("zero trace id")
	}
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("id string %q not 16 hex chars", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip %v != %v", back, id)
	}
	if _, err := ParseTraceID("zzz"); err == nil {
		t.Fatal("parse of junk succeeded")
	}
	// IDs marshal as quoted hex, not JSON numbers (uint64 > 2^53 unsafe).
	b, _ := json.Marshal(id)
	if string(b) != `"`+s+`"` {
		t.Fatalf("marshal = %s", b)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var a *Active
	if tr.Begin(a, "q") {
		t.Fatal("nil tracer armed a trace")
	}
	// Every recording call must no-op on nil/zero values.
	a.StartSpan("x").SetAttr("k", 1).End()
	a.Record("y", time.Now(), time.Millisecond)
	a.MarkSlow()
	a.Force()
	if a.Finish() != nil || a.Armed() || a.ID() != 0 {
		t.Fatal("nil Active not inert")
	}
	var zero Active
	zero.StartSpan("x").End()
	if zero.Finish() != nil {
		t.Fatal("disarmed Active retained a trace")
	}
	if tr.Recent() != nil || tr.Slow() != nil || tr.Find(1) != nil {
		t.Fatal("nil tracer returned traces")
	}
	if tr.SlowThreshold() != 0 {
		t.Fatal("nil tracer has slow threshold")
	}
}

func TestDisableReturnsNil(t *testing.T) {
	if New(Params{Disable: true}, nil) != nil {
		t.Fatal("Disable did not return nil tracer")
	}
}

func TestForcedRetention(t *testing.T) {
	// Head sampling off: only forced/slow traces survive.
	tr := New(Params{SampleEvery: -1, SlowThreshold: time.Hour}, nil)
	var a Active
	if !tr.Begin(&a, "search") {
		t.Fatal("Begin failed")
	}
	if a.Finish() != nil {
		t.Fatal("unforced trace retained with sampling off")
	}

	tr.Begin(&a, "search")
	a.Force()
	st := time.Now()
	a.Record("filter", st, 3*time.Millisecond).SetAttr("scanned", 200)
	got := a.Finish()
	if got == nil {
		t.Fatal("forced trace dropped")
	}
	if got.Slow {
		t.Fatal("fast trace marked slow")
	}
	sp, ok := got.Span("filter")
	if !ok || sp.Dur != 3*time.Millisecond {
		t.Fatalf("filter span = %+v ok=%v", sp, ok)
	}
	if len(sp.Attrs) != 1 || sp.Attrs[0] != (Attr{Key: "scanned", Val: 200}) {
		t.Fatalf("attrs = %+v", sp.Attrs)
	}
	if len(tr.Recent()) != 1 {
		t.Fatalf("recent = %d traces", len(tr.Recent()))
	}
	if len(tr.Slow()) != 0 {
		t.Fatal("fast trace in slow log")
	}
	if tr.Find(got.ID) == nil {
		t.Fatal("Find missed retained trace")
	}
	// Finish disarms: further records and a second Finish are inert.
	a.Record("late", time.Now(), time.Second)
	if a.Finish() != nil {
		t.Fatal("double Finish retained")
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Params{SampleEvery: 4, SlowThreshold: time.Hour}, nil)
	var a Active
	for i := 0; i < 16; i++ {
		tr.Begin(&a, "q")
		a.Finish()
	}
	if got := len(tr.Recent()); got != 4 {
		t.Fatalf("sampled %d of 16 with SampleEvery=4", got)
	}
}

func TestSlowThresholdAndMarkSlow(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Params{SampleEvery: -1, SlowThreshold: time.Nanosecond}, reg)
	var a Active
	tr.Begin(&a, "q")
	time.Sleep(time.Millisecond)
	got := a.Finish()
	if got == nil || !got.Slow {
		t.Fatalf("over-threshold trace not in slow log: %+v", got)
	}
	if len(tr.Slow()) != 1 {
		t.Fatalf("slow log has %d traces", len(tr.Slow()))
	}

	// MarkSlow forces the slow log regardless of duration (budget-degraded).
	tr2 := New(Params{SampleEvery: -1, SlowThreshold: time.Hour}, nil)
	tr2.Begin(&a, "q")
	a.MarkSlow()
	got = a.Finish()
	if got == nil || !got.Slow {
		t.Fatal("MarkSlow trace not retained as slow")
	}
	if reg.Value("ferret_traces_slow_total") != 1 {
		t.Fatalf("slow counter = %g", reg.Value("ferret_traces_slow_total"))
	}
	if reg.Value("ferret_traces_finished_total") != 1 {
		t.Fatalf("finished counter = %g", reg.Value("ferret_traces_finished_total"))
	}
}

func TestSpanOverflowCounted(t *testing.T) {
	tr := New(Params{SampleEvery: 1}, nil)
	var a Active
	tr.Begin(&a, "q")
	for i := 0; i < MaxSpans+5; i++ {
		a.Record("s", time.Now(), 0)
	}
	got := a.Finish()
	if got == nil {
		t.Fatal("trace dropped")
	}
	if len(got.Spans) != MaxSpans {
		t.Fatalf("spans = %d", len(got.Spans))
	}
	// Root occupies a slot, so 6 of the 29 non-root records were dropped.
	if got.Dropped != 6 {
		t.Fatalf("dropped = %d", got.Dropped)
	}
	if !strings.Contains(got.Compact(), "spans dropped") {
		t.Fatalf("Compact misses drop note: %s", got.Compact())
	}
}

func TestStagesAggregates(t *testing.T) {
	tr := New(Params{SampleEvery: 1}, nil)
	var a Active
	tr.Begin(&a, "q")
	st := time.Now()
	a.Record("rank", st, 2*time.Millisecond)
	a.Record("filter", st, time.Millisecond)
	a.Record("rank", st, 3*time.Millisecond) // fan-out: same stage twice
	stages := a.Stages()
	if len(stages) != 3 {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0] != (Stage{Name: "rank", Dur: 5 * time.Millisecond}) {
		t.Fatalf("rank stage = %+v", stages[0])
	}
	if stages[1] != (Stage{Name: "filter", Dur: time.Millisecond}) {
		t.Fatalf("filter stage = %+v", stages[1])
	}
	if stages[2].Name != "total" || stages[2].Dur <= 0 {
		t.Fatalf("total stage = %+v", stages[2])
	}
	s := FormatStages(stages)
	if !strings.Contains(s, "rank 5ms") || !strings.Contains(s, "(total ") {
		t.Fatalf("FormatStages = %q", s)
	}
	a.Finish()
}

func TestStartSpanEnd(t *testing.T) {
	tr := New(Params{SampleEvery: 1}, nil)
	var a Active
	tr.Begin(&a, "q")
	sp := a.StartSpan("write")
	if sp.ID() == 0 {
		t.Fatal("span has no id")
	}
	time.Sleep(time.Millisecond)
	sp.End()
	got := a.Finish()
	sd, ok := got.Span("write")
	if !ok || sd.Dur <= 0 {
		t.Fatalf("write span = %+v ok=%v", sd, ok)
	}
	if sd.Parent != got.Spans[0].ID {
		t.Fatal("span not parented on root")
	}
}

func TestRingWraps(t *testing.T) {
	tr := New(Params{SampleEvery: 1, RecentSize: 4}, nil)
	var a Active
	var last TraceID
	for i := 0; i < 10; i++ {
		tr.Begin(&a, "q")
		last = a.ID()
		a.Finish()
	}
	rec := tr.Recent()
	if len(rec) != 4 {
		t.Fatalf("ring holds %d", len(rec))
	}
	if rec[0].ID != last {
		t.Fatal("newest trace not first")
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(Params{SampleEvery: 1}, nil)
	var a Active
	tr.Begin(&a, "q")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a.Record("stage", time.Now(), time.Microsecond).SetAttr("i", int64(i))
				a.Elapsed()
				a.Stages()
			}
		}()
	}
	wg.Wait()
	if got := a.Finish(); got == nil {
		t.Fatal("trace dropped")
	}
}

func TestRecordAllocFree(t *testing.T) {
	tr := New(Params{SampleEvery: -1, SlowThreshold: -1}, nil)
	var a Active
	st := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		tr.Begin(&a, "q")
		a.Record("filter", st, time.Millisecond).SetAttr("scanned", 10)
		sp := a.StartSpan("write")
		sp.End()
		a.Finish()
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v/op", allocs)
	}
}

func TestHandler(t *testing.T) {
	tr := New(Params{SampleEvery: 1, SlowThreshold: time.Nanosecond}, nil)
	var a Active
	tr.Begin(&a, "search")
	time.Sleep(time.Millisecond)
	a.Record("rank", time.Now(), time.Millisecond)
	retained := a.Finish()
	if retained == nil {
		t.Fatal("setup trace dropped")
	}

	srv := httptest.NewServer(Handler(tr))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), sb.String()
	}

	code, ct, body := get("/")
	if code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("code=%d ct=%q", code, ct)
	}
	var decoded struct {
		Recent []json.RawMessage `json:"recent"`
		Slow   []json.RawMessage `json:"slow"`
	}
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if len(decoded.Recent) != 1 || len(decoded.Slow) != 1 {
		t.Fatalf("recent=%d slow=%d", len(decoded.Recent), len(decoded.Slow))
	}

	code, _, body = get("/?slow=1")
	if code != 200 || strings.Contains(body, `"recent"`) {
		t.Fatalf("slow=1 returned recent traces: %s", body)
	}

	code, _, body = get("/?id=" + retained.ID.String())
	if code != 200 || !strings.Contains(body, retained.ID.String()) {
		t.Fatalf("by-id lookup: code=%d body=%s", code, body)
	}
	if code, _, _ = get("/?id=0000000000000001"); code != 404 {
		t.Fatalf("missing id gave %d", code)
	}
	if code, _, _ = get("/?id=notahexid"); code != 400 {
		t.Fatalf("bad id gave %d", code)
	}

	if code, _, _ = get("/?n=0"); code != 200 {
		t.Fatal("n=0 rejected")
	}

	// Disabled tracer → 503.
	srv2 := httptest.NewServer(Handler(nil))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("nil tracer gave %d", resp.StatusCode)
	}
}

func TestParamDefaults(t *testing.T) {
	p := Params{}
	if p.sampleEvery() != 64 || p.slowThreshold() != 100*time.Millisecond {
		t.Fatalf("defaults: every=%d slow=%v", p.sampleEvery(), p.slowThreshold())
	}
	if p.recentSize() != 64 || p.slowSize() != 32 {
		t.Fatalf("ring defaults: %d/%d", p.recentSize(), p.slowSize())
	}
	p = Params{SampleEvery: -1, SlowThreshold: -1}
	if p.sampleEvery() != 0 || p.slowThreshold() != 0 {
		t.Fatal("negatives should disable")
	}
}
