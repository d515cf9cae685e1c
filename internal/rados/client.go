package rados

import (
	"errors"
	"fmt"

	"repro/internal/crush"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrDeadline marks an attempt abandoned at its per-attempt deadline. The
// operation may still complete on the cluster (the attempt keeps running
// unobserved), which is why only idempotent ops are retried this way.
var ErrDeadline = errors.New("deadline exceeded")

// RetryPolicy configures client-side resilience: per-attempt deadlines,
// bounded retries with caller-supplied backoff, and read failover to
// replica OSDs. A nil policy on the Client is the zero-cost healthy path —
// every request is issued exactly once, as before.
type RetryPolicy struct {
	// Deadline bounds each attempt; 0 disables (attempts wait forever).
	Deadline sim.Duration
	// MaxRetries is the number of re-issues after the first attempt.
	MaxRetries int
	// Backoff returns the delay before retry attempt (0-based); nil retries
	// immediately. Callers bind a seeded jitter source here (faults.Backoff)
	// so retry timing replays deterministically.
	Backoff func(attempt int) sim.Duration
	// Counters, when non-nil, receives resilience accounting.
	Counters *metrics.Resilience
}

// Repl is a pluggable replication protocol for one replicated pool (the
// per-PG Raft backend in internal/raft implements it). The client routes
// requests for the protocol's pool through it instead of the primary-copy
// paths; every other pool is untouched. Implementations complete done from
// fabric arrivals on the client's engine, like the client's own callbacks.
type Repl interface {
	// Pool returns the pool this protocol replicates.
	Pool() *Pool
	// Write commits n bytes at (obj, off) and completes done.
	Write(obj string, off, n int, opts ReqOpts, done func(error))
	// Read fetches n bytes at (obj, off) and completes done.
	Read(obj string, off, n int, opts ReqOpts, done func(error))
}

// Client executes object operations against a Cluster using the software
// primary-copy protocol (the Ceph baseline): the client talks to the acting
// primary, which fans replication or erasure shards out to the other acting
// OSDs. Host-side API costs (io_uring vs. NBD, context switches) are NOT
// charged here — they belong to the framework stacks in internal/core.
//
// Requests are continuation-passing: WriteAsync and ReadAsync run each
// request as an event chain over a pooled op (clientop.go) and call done
// from the event in which it finishes, so the data path needs no
// goroutine per request. Write, Read, WriteOpts and ReadOpts are the
// blocking adapters for long-lived Procs.
type Client struct {
	Cluster *Cluster
	Host    *netsim.Host

	// PlacementCost is the client CPU time to compute CRUSH placement per
	// operation (the software CRUSH kernel; 0 when an accelerator owns it).
	PlacementCost sim.Duration
	// ECEncodeCost returns the primary's CPU time to erasure-encode n
	// bytes; ECDecodeCost the time to reconstruct n bytes.
	ECEncodeCost func(n int) sim.Duration
	// ECDecodeCost is charged when a read needs parity reconstruction.
	ECDecodeCost func(n int) sim.Duration
	// Functional controls whether payload bytes are really moved through
	// the erasure codec and stores. Benchmarks switch it off to model
	// timing over synthetic payloads without the memory traffic.
	Functional bool
	// Retry, when non-nil, arms deadlines, retries and read failover.
	Retry *RetryPolicy
	// Repl, when non-nil, routes requests for Repl.Pool() through an
	// alternative replication protocol (repl-raft); other pools keep the
	// primary-copy paths. Unsupported on a split-domain client.
	Repl Repl
	// TraceSink, when non-nil, receives client-side recovery spans
	// (retry attempts, read failovers, degraded-read decodes) for sampled
	// ops. It must belong to the client's own domain; split-domain mode
	// never touches it from OSD-side arrivals because retries, failover
	// and EC are all rejected there.
	TraceSink *trace.Sink

	// Split routes replicated I/O through the arrival-driven split-domain
	// protocol: the client host and the OSD nodes live in different
	// topology domains of a sharded engine group, so no completion or
	// queue state may be touched across the boundary. Erasure pools,
	// retries and fault injection are unsupported in this mode.
	Split bool
	// Eng is the engine the client's procs and completions live on; nil
	// means the cluster's engine (the single-domain default).
	Eng *sim.Engine

	// place is the split-domain client's own placement memo (see
	// splitActing); nil until the first split op.
	place *crush.Memo
	// free recycles finished ops (see op). A split-domain client takes
	// and returns ops on its own shard only.
	free []*op
}

// NewClient attaches a client host to the cluster's fabric.
func NewClient(c *Cluster, name string, bitsPerSec float64, stack netsim.StackCost) (*Client, error) {
	h, err := c.Fabric.AddHost(name, bitsPerSec, stack)
	if err != nil {
		return nil, err
	}
	return &Client{
		Cluster:      c,
		Host:         h,
		ECEncodeCost: func(n int) sim.Duration { return 10*sim.Microsecond + sim.Duration(n/1024)*200*sim.Nanosecond },
		ECDecodeCost: func(n int) sim.Duration { return 12*sim.Microsecond + sim.Duration(n/1024)*250*sim.Nanosecond },
		Functional:   true,
	}, nil
}

func (cl *Client) fabric() *netsim.Fabric { return cl.Cluster.Fabric }

// eng returns the engine the client's completions live on.
func (cl *Client) eng() *sim.Engine {
	if cl.Eng != nil {
		return cl.Eng
	}
	return cl.Cluster.Eng
}

// shardKey names the stored shard object for an EC stripe write.
func shardKey(obj string, off, rank int) string {
	return ShardKey(obj, off, rank)
}

// WriteAsync stores data at (obj, off) in the pool and calls done once the
// write is durable on all reachable placement targets. done runs inside
// the event that completes the request, or before WriteAsync returns when
// the request fails before issuing anything (a placement error).
func (cl *Client) WriteAsync(pool *Pool, obj string, off int, data []byte, opts ReqOpts, done func(error)) {
	o, err := cl.start(true, pool, obj, off, len(data), opts)
	if err != nil {
		done(err)
		return
	}
	o.data, o.writeDone = data, done
	o.advance()
}

// ReadAsync fetches n bytes at (obj, off) and calls done with them, with
// the same timing contract as WriteAsync.
func (cl *Client) ReadAsync(pool *Pool, obj string, off, n int, opts ReqOpts, done func([]byte, error)) {
	o, err := cl.start(false, pool, obj, off, n, opts)
	if err != nil {
		done(nil, err)
		return
	}
	o.readDone = done
	o.advance()
}

// start picks the request's chain — split-domain, retried, or a direct
// protocol path — and takes an op for it.
func (cl *Client) start(write bool, pool *Pool, obj string, off, n int, opts ReqOpts) (*op, error) {
	var kind, sub opKind
	switch {
	case cl.Split:
		if pool.Kind == ECPool {
			return nil, fmt.Errorf("rados: erasure pools are not supported on a split-domain client")
		}
		kind = kindReadSplit
		if write {
			kind = kindWriteSplit
		}
	case cl.Retry != nil:
		kind, sub = kindRetry, cl.protocol(write, pool)
	default:
		kind = cl.protocol(write, pool)
	}
	o := cl.getOp()
	o.kind, o.sub, o.write = kind, sub, write
	o.pool, o.obj, o.off, o.n, o.opts = pool, obj, off, n, opts
	return o, nil
}

// protocol picks the single-attempt chain for a pool: the pluggable
// replication protocol, erasure coding, or primary-copy replication.
func (cl *Client) protocol(write bool, pool *Pool) opKind {
	switch {
	case cl.Repl != nil && pool == cl.Repl.Pool():
		if write {
			return kindReplWrite
		}
		return kindReplRead
	case pool.Kind == ECPool:
		if write {
			return kindWriteEC
		}
		return kindReadEC
	case write:
		return kindWriteRepl
	default:
		return kindReadRepl
	}
}

// Write stores data at (obj, off) in the pool and returns when the write is
// durable on all reachable placement targets.
func (cl *Client) Write(p *sim.Proc, pool *Pool, obj string, off int, data []byte) error {
	return cl.WriteOpts(p, pool, obj, off, data, ReqOpts{})
}

// WriteOpts is Write with per-request service hints: WriteAsync with the
// proc blocked until done. The proc resumes inside the request's final
// event, so the adapter adds no event of its own.
func (cl *Client) WriteOpts(p *sim.Proc, pool *Pool, obj string, off int, data []byte, opts ReqOpts) error {
	var err error
	p.Block(func(wake func()) {
		cl.WriteAsync(pool, obj, off, data, opts, func(e error) {
			err = e
			wake()
		})
	})
	return err
}

// Read returns n bytes at (obj, off).
func (cl *Client) Read(p *sim.Proc, pool *Pool, obj string, off, n int) ([]byte, error) {
	return cl.ReadOpts(p, pool, obj, off, n, ReqOpts{})
}

// ReadOpts is Read with per-request service hints: ReadAsync with the proc
// blocked until done, adding no event.
func (cl *Client) ReadOpts(p *sim.Proc, pool *Pool, obj string, off, n int, opts ReqOpts) ([]byte, error) {
	var data []byte
	var err error
	p.Block(func(wake func()) {
		cl.ReadAsync(pool, obj, off, n, opts, func(d []byte, e error) {
			data, err = d, e
			wake()
		})
	})
	return data, err
}

// splitActing returns the acting set of obj's PG from the client's own
// placement memo. A split-domain client runs on the host shard, where
// filling the cluster's shared cache would race with the OSD shards, so it
// keeps a memo of its own, created on first use and validated against the
// CRUSH map generation and the cluster epoch (the reweight version). The
// result is shared with the memo: treat it as read-only.
func (cl *Client) splitActing(pool *Pool, obj string) ([]int, error) {
	c := cl.Cluster
	if cl.place == nil {
		cl.place = crush.NewMemo(c.Map)
	}
	return c.actingIn(cl.place, pool, c.PGOf(pool, obj))
}

func zeroBytes(n int) []byte { return make([]byte, n) }
