package main

import (
	"reflect"
	"sync"
	"time"

	"cryptodrop/internal/filter"
	"cryptodrop/internal/vfs"
)

// Filter altitudes for the benchmark's clock filters: above every filter
// the monitor attaches (enforcement sits at 400000) and below all of them
// (the engine adapter sits at 328000).
const (
	altitudeTop    = 900000
	altitudeBottom = 1
)

// opClock is a top-altitude filter that only reads the clock: PreOp stamps
// the op, PostOp records the interceptor-visible latency. The monitor's
// engine scores synchronously inside PostOp, so the latency is the op's
// time to verdict. Vetoed ops never reach PostOp and are not counted. Safe
// for concurrent runs sharing one filter: ops are spread over shards by
// address, and each side reads the clock where a wait for a shard lock
// falls outside the measured interval.
type opClock struct {
	shards [clockShards]clockShard
}

// clockShards is the number of independently locked shards.
const clockShards = 16

type clockShard struct {
	mu    sync.Mutex
	start map[*vfs.Op]time.Time
	lat   []time.Duration
}

var _ filter.Filter = (*opClock)(nil)

func newOpClock() *opClock {
	c := &opClock{}
	for i := range c.shards {
		c.shards[i].start = make(map[*vfs.Op]time.Time)
	}
	return c
}

func (c *opClock) shard(op *vfs.Op) *clockShard {
	return &c.shards[reflect.ValueOf(op).Pointer()>>6%clockShards]
}

func (c *opClock) Name() string { return "perfbench-clock" }

func (c *opClock) PreOp(op *vfs.Op) error {
	sh := c.shard(op)
	sh.mu.Lock()
	sh.start[op] = time.Now()
	sh.mu.Unlock()
	return nil
}

func (c *opClock) PostOp(op *vfs.Op) {
	now := time.Now()
	sh := c.shard(op)
	sh.mu.Lock()
	if t, ok := sh.start[op]; ok {
		delete(sh.start, op)
		sh.lat = append(sh.lat, now.Sub(t))
	}
	sh.mu.Unlock()
}

// take returns the latencies recorded so far and resets the clock.
func (c *opClock) take() []time.Duration {
	var lat []time.Duration
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		lat = append(lat, sh.lat...)
		sh.lat = nil
		clear(sh.start)
		sh.mu.Unlock()
	}
	return lat
}

// opKinds are the op kinds the bracket breakdown reports.
var opKinds = []vfs.OpKind{vfs.OpOpen, vfs.OpRead, vfs.OpWrite, vfs.OpClose}

// brackets splits each op into three intervals with a top and a bottom
// filter: top-Pre→bottom-Pre is the filter chain's pre-operation work
// (enforcement and the engine's PreEvent), bottom-Pre→bottom-Post the
// backend (with versioned capture when recovery is armed), and
// bottom-Post→top-Post the engine's post-operation scoring. Single
// goroutine only.
type brackets struct {
	cur     *vfs.Op
	t0, t1  time.Time
	t2      time.Time
	pre     map[vfs.OpKind]time.Duration
	backend map[vfs.OpKind]time.Duration
	post    map[vfs.OpKind]time.Duration
	count   map[vfs.OpKind]int
}

func newBrackets() *brackets {
	return &brackets{
		pre:     make(map[vfs.OpKind]time.Duration),
		backend: make(map[vfs.OpKind]time.Duration),
		post:    make(map[vfs.OpKind]time.Duration),
		count:   make(map[vfs.OpKind]int),
	}
}

// top and bottom are the two filters to attach.
func (b *brackets) top() filter.Filter {
	return &filter.Func{
		FilterName: "perfbench-bracket-top",
		Pre: func(op *vfs.Op) error {
			b.cur, b.t0 = op, time.Now()
			return nil
		},
		Post: func(op *vfs.Op) {
			now := time.Now()
			if op != b.cur || b.t2.IsZero() {
				return
			}
			b.pre[op.Kind] += b.t1.Sub(b.t0)
			b.backend[op.Kind] += b.t2.Sub(b.t1)
			b.post[op.Kind] += now.Sub(b.t2)
			b.count[op.Kind]++
			b.cur, b.t1, b.t2 = nil, time.Time{}, time.Time{}
		},
	}
}

func (b *brackets) bottom() filter.Filter {
	return &filter.Func{
		FilterName: "perfbench-bracket-bottom",
		Pre: func(op *vfs.Op) error {
			if op == b.cur {
				b.t1 = time.Now()
			}
			return nil
		},
		Post: func(op *vfs.Op) {
			if op == b.cur && !b.t1.IsZero() {
				b.t2 = time.Now()
			}
		},
	}
}
