package mpi

import (
	"fmt"
	"time"
)

// Comm is a rank's handle to the cluster, passed to the function run by
// Cluster.Run. It is owned by that rank's goroutine and must not be shared.
type Comm struct {
	cl *Cluster
	rs *rankState
}

// Rank returns this rank's id (0-based).
func (c *Comm) Rank() int { return c.rs.id }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.cl.n }

// Elapsed returns this rank's virtual clock: its clock at the start of the
// current compute segment, with every queued send counted, plus the
// segment's explicit charges so far.
func (c *Comm) Elapsed() time.Duration {
	c.cl.mu.Lock()
	defer c.cl.mu.Unlock()
	return c.rs.key + c.rs.pending
}

// Charge adds modeled compute time to this rank's clock. Use together with
// Options.MeasureCompute=false for deterministic virtual-time tests.
func (c *Comm) Charge(d time.Duration) { c.rs.pending += d }

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
}

// Send posts a message to dst. Sends are eager (buffered at the receiver)
// and never wait: the message is queued with the sender's overhead and
// transfer time charged to its clock, and delivered at the sender's turn
// in the schedule while the sender computes on. A send to the sender's own
// rank is a local enqueue — the message lands in the sender's inbox after
// the modeled overheads, so strategy code needs no rank special-casing
// (MPI likewise buffers self-sends).
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.cl.n {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", dst))
	}
	compute := c.cl.endSegment(c.rs)
	c.cl.queue(c.rs, op{kind: opSend, tag: tag, out: []outMsg{{dst, clone(data)}}}, compute)
}

// clone copies a payload the caller may reuse once Send returns. Unlike
// bytes.Clone it never returns nil, so an empty message arrives non-nil.
func clone(data []byte) []byte {
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp
}

// Recv blocks until a message matching (src, tag) is available and returns
// its payload. Use AnySource and AnyTag as wildcards; internal collective
// traffic is never matched by AnyTag.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	msg, _ := c.cl.park(c.rs, op{kind: opRecv, src: src, tag: tag})
	return msg.data, Status{Source: msg.src, Tag: msg.tag}
}

// Poll is a non-blocking Recv: it consumes and returns a message matching
// (src, tag) if one is pending, and returns ok=false without blocking
// otherwise. The poll takes two turns: the first lands the caller's
// compute on its clock, and the inbox is inspected at the second, after
// every rank with a smaller virtual clock has had its turn. So the set of
// messages a poll can see is a pure function of the virtual-time schedule
// — with MeasureCompute=false this makes polling loops (the async Type III
// exchange) fully deterministic. A hit charges the receive overhead and
// advances the clock to the message's arrival exactly as Recv would; a
// miss charges nothing.
func (c *Comm) Poll(src, tag int) ([]byte, Status, bool) {
	msg, ok := c.cl.park(c.rs, op{kind: opPollCharge, src: src, tag: tag})
	if !ok {
		return nil, Status{}, false
	}
	return msg.data, Status{Source: msg.src, Tag: msg.tag}, true
}

// Bcast distributes data from root to every rank; all ranks must call it.
// It returns the payload (root returns its own data). With a TrueBroadcast
// network the root pays the wire cost once, as on a shared-medium LAN.
// Like Send, the root does not wait.
func (c *Comm) Bcast(root int, data []byte) []byte {
	if c.rs.id != root {
		payload, _ := c.Recv(root, tagBcast)
		return payload
	}
	compute := c.cl.endSegment(c.rs)
	o := op{kind: opSend, tag: tagBcast, once: c.cl.opt.Net.TrueBroadcast, size: len(data)}
	for dst := 0; dst < c.cl.n; dst++ {
		if dst != root {
			o.out = append(o.out, outMsg{dst, clone(data)})
		}
	}
	c.cl.queue(c.rs, o, compute)
	return data
}

// Gather collects one payload per rank at root; all ranks must call it.
// Root receives in rank order and returns the slice indexed by rank;
// non-roots return nil.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	if c.rs.id != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([][]byte, c.cl.n)
	cp := make([]byte, len(data))
	copy(cp, data)
	out[root] = cp
	for r := 0; r < c.cl.n; r++ {
		if r == root {
			continue
		}
		payload, _ := c.Recv(r, tagGather)
		out[r] = payload
	}
	return out
}

// Barrier blocks until every rank reaches it (linear fan-in/fan-out
// through rank 0).
func (c *Comm) Barrier() {
	if c.rs.id == 0 {
		for r := 1; r < c.cl.n; r++ {
			c.Recv(r, tagBarrierUp)
		}
		for r := 1; r < c.cl.n; r++ {
			c.Send(r, tagBarrierDown, nil)
		}
		return
	}
	c.Send(0, tagBarrierUp, nil)
	c.Recv(0, tagBarrierDown)
}
