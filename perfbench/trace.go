package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"photoloop/internal/mapper"
	"photoloop/internal/shard"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is switched off, records nothing and costs one branch per call.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// record stores a finished span and returns it (the zero span, ID 0, when
// tracing is off).
func (t *tracer) record(name string, parent, req uint64, start, end time.Time) span {
	if !t.enabled() {
		return span{}
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return s
}

// named returns a copy of the spans with the given name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the durations of the named spans in milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	ss := t.named(name)
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	return out
}

// selfMS is a span's duration minus the part of its interval covered by
// the given child spans (children are assumed not to overlap each other).
func selfMS(parent span, children []span) float64 {
	covered := int64(0)
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			covered += hi - lo
		}
	}
	return float64(parent.End-parent.Start-covered) / 1e6
}

// write stores the spans as NDJSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// observer is a mapper.Persister decorator. In a mapper.Cache the
// persister's Load runs right before a search is computed and its Store
// right after, so the interval from a missing Load to the Store of the
// same key is the search itself: the observer records it as a
// "mapper.search" span and keeps the computed Best for the funnel
// counters. With a nil inner persister it observes a memory-only cache
// without changing what the cache computes or counts.
type observer struct {
	inner mapper.Persister
	tr    *tracer

	mu      sync.Mutex
	started map[mapper.Key]time.Time
	bests   map[mapper.Key]*mapper.Best
	order   []mapper.Key
}

func newObserver(inner mapper.Persister, tr *tracer) *observer {
	return &observer{inner: inner, tr: tr, started: map[mapper.Key]time.Time{}, bests: map[mapper.Key]*mapper.Best{}}
}

func (o *observer) Load(k mapper.Key) (*mapper.Best, bool) {
	start := time.Now()
	var b *mapper.Best
	ok := false
	if o.inner != nil {
		b, ok = o.inner.Load(k)
		o.tr.record("store.load", 0, 0, start, time.Now())
	}
	if !ok {
		o.mu.Lock()
		o.started[k] = time.Now()
		o.mu.Unlock()
	}
	return b, ok
}

func (o *observer) Store(k mapper.Key, b *mapper.Best) error {
	now := time.Now()
	o.mu.Lock()
	if st, ok := o.started[k]; ok {
		delete(o.started, k)
		o.tr.record("mapper.search", 0, 0, st, now)
	}
	if _, ok := o.bests[k]; !ok {
		o.bests[k] = b
		o.order = append(o.order, k)
	}
	o.mu.Unlock()
	if o.inner == nil {
		return nil
	}
	err := o.inner.Store(k, b)
	o.tr.record("store.store", 0, 0, now, time.Now())
	return err
}

// computed returns the Bests the observed cache computed, in completion
// order.
func (o *observer) computed() []*mapper.Best {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*mapper.Best, len(o.order))
	for i, k := range o.order {
		out[i] = o.bests[k]
	}
	return out
}

// keys returns the keys of the computed searches, in completion order.
func (o *observer) keys() []mapper.Key {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]mapper.Key(nil), o.order...)
}

// tracedStore decorates a shard.WorkerStore: persister calls go through
// an observer, Begin and Flush are timed.
type tracedStore struct {
	*observer
	ws shard.WorkerStore
}

func newTracedStore(ws shard.WorkerStore, tr *tracer) *tracedStore {
	return &tracedStore{observer: newObserver(ws, tr), ws: ws}
}

func (s *tracedStore) Begin(ctx context.Context, job string) error {
	start := time.Now()
	err := s.ws.Begin(ctx, job)
	s.tr.record("store.begin", 0, 0, start, time.Now())
	return err
}

func (s *tracedStore) Flush(ctx context.Context) error {
	start := time.Now()
	err := s.ws.Flush(ctx)
	s.tr.record("store.flush", 0, 0, start, time.Now())
	return err
}

// tracedCoord decorates a shard.Coord. Besides timing each protocol call
// it records the idle wait between an empty Lease answer and the next
// Lease call as "shard.lease_wait".
type tracedCoord struct {
	c        shard.Coord
	tr       *tracer
	mu       sync.Mutex
	idleFrom time.Time
}

func (c *tracedCoord) Lease(ctx context.Context, job string) (*shard.Lease, error) {
	start := time.Now()
	c.mu.Lock()
	if !c.idleFrom.IsZero() {
		c.tr.record("shard.lease_wait", 0, 0, c.idleFrom, start)
		c.idleFrom = time.Time{}
	}
	c.mu.Unlock()
	l, err := c.c.Lease(ctx, job)
	end := time.Now()
	c.tr.record("shard.lease", 0, 0, start, end)
	if err == nil && l == nil {
		c.mu.Lock()
		c.idleFrom = end
		c.mu.Unlock()
	}
	return l, err
}

func (c *tracedCoord) Heartbeat(ctx context.Context, job, lease string) error {
	start := time.Now()
	err := c.c.Heartbeat(ctx, job, lease)
	c.tr.record("shard.heartbeat", 0, 0, start, time.Now())
	return err
}

func (c *tracedCoord) Complete(ctx context.Context, job, lease string) error {
	start := time.Now()
	err := c.c.Complete(ctx, job, lease)
	c.tr.record("shard.complete", 0, 0, start, time.Now())
	return err
}

func (c *tracedCoord) Fail(ctx context.Context, job, lease, msg string) error {
	start := time.Now()
	err := c.c.Fail(ctx, job, lease, msg)
	c.tr.record("shard.fail", 0, 0, start, time.Now())
	return err
}

// reqHeader carries the benchmark's request id from client to handler so
// the two sides' spans of one request can be paired.
const reqHeader = "X-Perfbench-Req"

// tracedTransport decorates an http.RoundTripper; every round trip is an
// "http.request" span (until the response headers arrive).
type tracedTransport struct {
	rt       http.RoundTripper
	tr       *tracer
	requests atomic.Int64
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.rt.RoundTrip(r)
	req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	t.tr.record("http.request", 0, req, start, time.Now())
	t.requests.Add(1)
	return resp, err
}

// tracedHandler decorates the sweep.Server handler: each request is a
// "sweep.handler" span carrying the client's request id.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.h.ServeHTTP(w, r)
	req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	h.tr.record("sweep.handler", 0, req, start, time.Now())
}

// writeTrace stores the run's spans beside its report.
func writeTrace(o *options, tr *tracer) error {
	if tr == nil || len(tr.spans) == 0 {
		return nil
	}
	if tr.dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: trace kept %d spans and dropped %d\n", len(tr.spans), tr.dropped)
	}
	return tr.write(filepath.Join(o.work, "results", fmt.Sprintf("%s-seed%d-spans.ndjson", o.workload, o.seed)))
}
