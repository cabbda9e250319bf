package evaltool

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"syscall"
	"time"

	"ferret/internal/protocol"
)

// RemoteRunner drives the benchmark through the command-line query
// interface of a running server — the paper's deployment of the
// performance evaluation tool (§4.1.4, §4.3), which lets parameters be
// swept by scripts without restarting the server.
//
// A long benchmark shouldn't die to a transient hiccup: requests that fail
// with a timeout, a dropped connection, or the server's BUSY shed response
// are retried with capped exponential backoff plus jitter, redialing the
// connection between attempts when Redial is set.
type RemoteRunner struct {
	// Client is the protocol connection to the server.
	Client *protocol.Client
	// Params are applied to every query; K is raised per set so the
	// second-tier metric is measurable.
	Params protocol.QueryParams
	// DatasetSize is the default rank for missed gold objects; 0 asks the
	// server via COUNT.
	DatasetSize int
	// Timeout bounds each request round trip (0 = none). It is applied to
	// Client at the start of Run and to every redialed connection.
	Timeout time.Duration
	// Retries is how many extra attempts a transiently failing request
	// gets (default 3; negative disables retries).
	Retries int
	// BackoffBase is the first retry delay; attempt i waits up to
	// BackoffBase·2ⁱ, capped at 2s, with ±50% jitter (default 50ms).
	BackoffBase time.Duration
	// Redial, when set, reopens the server connection before a retry —
	// required to recover from transport failures and BUSY sheds, both of
	// which leave the old connection dead.
	Redial func() (*protocol.Client, error)

	// sleep is a test seam for the backoff delays.
	sleep func(time.Duration)
	rng   *rand.Rand
}

// transientErr classifies failures worth retrying: timeouts, connection
// resets/refusals, a dropped transport, and the server's BUSY shed
// response. Other server errors (unknown key, bad arguments) are
// deterministic and not retried.
func transientErr(err error) bool {
	var se *protocol.ServerError
	if errors.As(err, &se) {
		return strings.HasPrefix(se.Msg, "BUSY")
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// backoffDelay is the capped exponential schedule with jitter: full delay
// for attempt i is base·2ⁱ capped at 2s, jittered to [½d, d] so a fleet of
// retrying clients doesn't thunder back in lockstep.
func backoffDelay(attempt int, base time.Duration, rng *rand.Rand) time.Duration {
	const maxDelay = 2 * time.Second
	d := base
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// retry runs one request op, retrying transient failures per the runner's
// policy. Any transient failure redials when possible: timeouts poison the
// protocol stream (a late response would desynchronize it) and BUSY sheds
// close the connection server-side, so a fresh connection is the only safe
// way back.
func (r *RemoteRunner) retry(op func() error) error {
	retries := r.Retries
	if retries == 0 {
		retries = 3
	}
	if retries < 0 {
		retries = 0
	}
	base := r.BackoffBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if r.sleep == nil {
		r.sleep = time.Sleep
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !transientErr(err) || attempt >= retries {
			return err
		}
		r.sleep(backoffDelay(attempt, base, r.rng))
		if r.Redial != nil {
			c, derr := r.Redial()
			if derr != nil {
				continue // server still down: let the next attempt back off again
			}
			r.Client.Close()
			if r.Timeout > 0 {
				c.SetTimeout(r.Timeout)
			}
			r.Client = c
		}
	}
}

// query is one QUERY round trip under the retry policy.
func (r *RemoteRunner) query(key string, p protocol.QueryParams) ([]protocol.Result, error) {
	var out []protocol.Result
	err := r.retry(func() error {
		var err error
		out, err = r.Client.Query(key, p)
		return err
	})
	return out, err
}

// count is one COUNT round trip under the retry policy.
func (r *RemoteRunner) count() (int, error) {
	var n int
	err := r.retry(func() error {
		var err error
		n, err = r.Client.Count()
		return err
	})
	return n, err
}

// Run evaluates similarity sets of object keys against the remote server
// by score's rule: each query is one QUERY round trip by key under the retry
// policy. A deterministic server error (the key is not in the database)
// skips the set; a transient error surviving the retry budget is a real
// outage and fails the run.
func (r *RemoteRunner) Run(sets [][]string) (Report, error) {
	if r.Timeout > 0 {
		r.Client.SetTimeout(r.Timeout)
	}
	size := r.DatasetSize
	if size == 0 {
		n, err := r.count()
		if err != nil {
			return Report{}, fmt.Errorf("evaltool: COUNT: %w", err)
		}
		size = n
	}
	return score(sets, size, func(key string, k int) ([]string, bool, error) {
		p := r.Params
		p.K = max(p.K, k)
		results, err := r.query(key, p)
		if err != nil {
			if _, ok := err.(*protocol.ServerError); ok && !transientErr(err) {
				return nil, false, nil
			}
			return nil, false, fmt.Errorf("evaltool: QUERY %s: %w", key, err)
		}
		keys := make([]string, len(results))
		for i, res := range results {
			keys[i] = res.Key
		}
		return keys, true, nil
	})
}
