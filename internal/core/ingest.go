package core

import (
	"context"
	"errors"

	"ferret/internal/attr"
	"ferret/internal/object"
)

// Ingest admission: overload robustness for the write path. Ingest
// serializes its commit on ingestMu, so unbounded concurrent producers
// would pile goroutines onto one mutex; admission bounds that pile and
// gives producers an explicit overload signal instead. A producer takes one
// of Depth+Workers slots, then one of Workers run tokens, and calls Ingest
// on its own goroutine. Two policies govern the slot wait:
//
//   - backpressure (default): with every slot taken the producer blocks
//     until one frees, so sustained-rate producers slow to the engine's
//     commit rate; its context cancels the wait.
//   - shed (IngestParams.Shed): with every slot taken the producer is
//     refused at once with ErrOverloaded, counted in
//     ferret_ingest_rejected_total.
//
// Up to Workers producers run Ingest at once, so their sketch construction
// overlaps even though the final commit is serialized.

// ErrOverloaded reports that every admission slot is taken and the shed
// policy is active. The server maps it to a BUSY wire error so clients back
// off instead of timing out.
var ErrOverloaded = errors.New("core: ingest queue full")

// IngestParams configures ingest admission. The zero value disables it:
// IngestQueued then commits directly, exactly like Ingest.
type IngestParams struct {
	// Depth is how many admitted producers may wait for a run token. 0
	// means 256 once admission is enabled (see Workers).
	Depth int
	// Shed makes a producer that finds every slot taken fail with
	// ErrOverloaded instead of blocking.
	Shed bool
	// Workers is how many admitted producers run Ingest at once. 0 means 1.
	// Setting Depth or Workers enables admission.
	Workers int
}

// admission holds the two semaphores: slots counts admitted producers,
// waiting or running (Depth+Workers), run those inside Ingest (Workers).
type admission struct {
	slots, run chan struct{}
	shed       bool
}

func newAdmission(p IngestParams) *admission {
	if p.Depth <= 0 {
		p.Depth = 256
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	return &admission{slots: make(chan struct{}, p.Depth+p.Workers), run: make(chan struct{}, p.Workers), shed: p.Shed}
}

// waiting counts the admitted producers not yet running. The two lengths
// are read apart, so clamp a transiently negative difference.
func (a *admission) waiting() int64 { return int64(max(0, len(a.slots)-len(a.run))) }

// IngestQueued commits one object through admission when it is configured
// (Config.Ingest): the producer waits for a slot — or, under the shed
// policy, is refused with ErrOverloaded — then for a run token, and gets
// what Ingest returns. Without admission it is exactly Ingest. The context
// covers only the slot wait: once admitted, the commit is not cancellable.
func (e *Engine) IngestQueued(ctx context.Context, o object.Object, attrs attr.Attrs) (object.ID, error) {
	a := e.admit
	if a == nil {
		return e.Ingest(o, attrs)
	}
	if a.shed {
		select {
		case a.slots <- struct{}{}:
		default:
			e.met.ingestRejected.Inc()
			return 0, ErrOverloaded
		}
	} else {
		// A cancelled producer is refused even when a slot is free: select
		// picks pseudo-randomly among ready cases.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		select {
		case a.slots <- struct{}{}:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	e.met.queueDepth.Set(a.waiting())
	a.run <- struct{}{}
	e.met.queueDepth.Set(a.waiting())
	id, err := e.Ingest(o, attrs)
	<-a.run
	<-a.slots
	return id, err
}
