package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apsp"
	"repro/internal/jobs"
)

// span is one timed interval of a traced run. Spans of one HTTP
// request share a request ID: the client transport sets it, the router
// forwards it, and the backend handler reads it.
type span struct {
	Name   string `json:"name"`
	Route  string `json:"route,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for none
	RID    string `json:"request_id,omitempty"`
	Op     int    `json:"op"` // op index, -1 outside ops
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans and named samples in memory; write
// dumps them when the run ends. A nil *tracer records nothing, so
// untraced runs pay no tracing cost.
type tracer struct {
	origin time.Time
	rids   atomic.Int64

	mu     sync.Mutex
	spans  []span
	ridOp  map[string]int
	values map[string][]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), ridOp: map[string]int{}, values: map[string][]float64{}}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

func (tr *tracer) begin(name string, parent int, rid string, op int) int {
	s := span{Name: name, Start: tr.now(), Parent: parent, RID: rid, Op: op}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, s)
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	end := tr.now()
	tr.mu.Lock()
	tr.spans[id].End = end
	tr.mu.Unlock()
}

// timed records fn as one span covering n items.
func (tr *tracer) timed(name string, n int, fn func()) {
	id := tr.begin(name, -1, "", -1)
	fn()
	tr.end(id)
	tr.mu.Lock()
	tr.spans[id].N = n
	tr.mu.Unlock()
}

// value records one sample of a named quantity that is not a span: a
// count, or a time the server reported.
func (tr *tracer) value(name string, v float64) {
	tr.mu.Lock()
	tr.values[name] = append(tr.values[name], v)
	tr.mu.Unlock()
}

func (tr *tracer) len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// newRID mints a request ID for op (-1 for none) and remembers the
// mapping, so backend spans can be charged to their op.
func (tr *tracer) newRID(op int) string {
	rid := fmt.Sprintf("pb%d", tr.rids.Add(1))
	tr.mu.Lock()
	tr.ridOp[rid] = op
	tr.mu.Unlock()
	return rid
}

func (tr *tracer) opOf(rid string) int {
	if !strings.HasPrefix(rid, "pb") {
		return -1 // not minted by the traced transport
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if op, ok := tr.ridOp[rid]; ok {
		return op
	}
	return -1
}

// spanCtx is the op and the enclosing span carried in a request's
// context, so nested SDK calls and round trips find their parent.
type spanCtx struct {
	tr     *tracer
	op     int
	parent int
}

type spanKey struct{}

func spanOf(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	return sc, ok
}

// sampled reports whether op i is traced. A traced run traces half its
// ops, picked by a hash of the index so the choice is independent of
// which input an op uses; the other half measures the tracing overhead.
func sampled(i int) bool { return mix(0x7ace, i)&1 == 1 }

// beginOp opens the "op" span of op i when op i is traced.
func (tr *tracer) beginOp(ctx context.Context, i int) (context.Context, func()) {
	if tr == nil || !sampled(i) {
		return ctx, func() {}
	}
	id := tr.begin("op", -1, "", i)
	return context.WithValue(ctx, spanKey{}, spanCtx{tr: tr, op: i, parent: id}), func() { tr.end(id) }
}

// call runs one SDK call, as a span named name when ctx is traced.
func call(ctx context.Context, name string, fn func(context.Context) error) error {
	sc, ok := spanOf(ctx)
	if !ok {
		return fn(ctx)
	}
	id := sc.tr.begin(name, sc.parent, "", sc.op)
	err := fn(context.WithValue(ctx, spanKey{}, spanCtx{tr: sc.tr, op: sc.op, parent: id}))
	sc.tr.end(id)
	return err
}

// transport wraps base so each traced round trip is a
// "client.transport" span carrying a fresh X-Request-ID. It reads the
// whole body before returning, so the span covers the body transfer
// and the SDK's time is only its own encoding and decoding. An NDJSON
// event stream is passed through unread, so the SDK sees each event as
// it arrives; its span ends when the SDK reaches the stream's end.
func (tr *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		sc, ok := spanOf(req.Context())
		if !ok {
			return base.RoundTrip(req)
		}
		rid := tr.newRID(sc.op)
		req = req.Clone(req.Context())
		req.Header.Set("X-Request-ID", rid)
		id := tr.begin("client.transport", sc.parent, rid, sc.op)
		resp, err := base.RoundTrip(req)
		if err != nil {
			tr.end(id)
			return nil, err
		}
		if resp.Header.Get("Content-Type") == "application/x-ndjson" {
			resp.Body = &streamBody{ReadCloser: resp.Body, end: func() { tr.end(id) }}
			return resp, nil
		}
		defer tr.end(id)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	})
}

// streamBody ends its span at the first EOF or Close.
type streamBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *streamBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *streamBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// handler wraps a router's or a server's ServeHTTP in a span named
// name when the request belongs to a traced op: its X-Request-ID is one
// the traced transport set. The router forwards the ID to the backend.
func (tr *tracer) handler(name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		op := tr.opOf(rid)
		if op < 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin(name, -1, rid, op)
		h.ServeHTTP(w, r)
		tr.end(id)
		tr.mu.Lock()
		tr.spans[id].Route = route(r)
		tr.mu.Unlock()
	})
}

// route names a request by method and path pattern, with resource IDs
// folded so the route set stays small.
func route(r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(parts) >= 3 && (parts[1] == "graphs" || parts[1] == "jobs") {
		parts[2] = "{id}"
	}
	return r.Method + " /" + strings.Join(parts, "/")
}

// covered is how much of [s.Start, s.End) the intervals of kids cover.
func covered(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, reach int64
	reach = s.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		total += v.b - max(v.a, reach)
		reach = v.b
	}
	return time.Duration(total)
}

// replay times the layer calls common to every workload on its working
// set, then the workload's own.
func (tr *tracer) replay(ctx context.Context, w workload, ops []int) error {
	its := w.items()
	engine, kind := apsp.EngineAuto, apsp.KindCompact
	for _, it := range its {
		edges := pairs(it.g.Edges())
		for range 3 {
			var err error
			tr.timed("jobs.cache_key", 1, func() {
				// The key struct prepareOpacity hashes on every request,
				// cache hit or not.
				_, err = jobs.HashJSON(struct {
					Op            string   `json:"op"`
					N             int      `json:"n"`
					Edges         [][2]int `json:"edges"`
					L             int      `json:"l"`
					Engine, Store string
				}{"opacity", it.g.N(), edges, it.l, engine.String(), kind.String()})
			})
			if err != nil {
				return err
			}
		}
	}
	for _, it := range its[:min(len(its), 8)] {
		tr.timed("apsp.build", 1, func() { apsp.Build(it.g, it.l, apsp.BuildOptions{}) })
	}
	return w.replay(ctx, tr, ops)
}

// write dumps every span as one JSON line into dir.
func (tr *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
