package rados

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

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
// goroutine per request.
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
	// Retry, when non-nil, runs every request through the policy's
	// deadlines and retries, with read failover; a split-domain client
	// ignores it.
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
	// Eng is the engine the client's request chains run on; nil
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
	o.run()
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
	o.run()
}

// start picks the request's chain — split-domain or a protocol path — and
// takes an op for it.
func (cl *Client) start(write bool, pool *Pool, obj string, off, n int, opts ReqOpts) (*op, error) {
	var kind opKind
	if cl.Split {
		if pool.Kind == ECPool {
			return nil, fmt.Errorf("rados: erasure pools are not supported on a split-domain client")
		}
		kind = kindReadSplit
		if write {
			kind = kindWriteSplit
		}
	} else {
		kind = cl.protocol(write, pool)
	}
	o := cl.getOp()
	o.kind, o.write = kind, write
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
