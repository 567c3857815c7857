package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	vaq "repro"
	"repro/internal/obs"
)

// requestIDHeader carries "<request id>/<parent span id>" from the client
// round trip to the server, linking the spans of one request across the
// wire.
const requestIDHeader = "X-E2ebench-Request"

// span is one timed interval at a layer boundary. Spans of one client
// request share Req; Parent is the span that caused this one (0 for a
// root). Start and End are nanoseconds since the recorder started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// recorder keeps the spans of the traced phase in memory, and which
// requests a server's result cache answered.
type recorder struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	hitReqs map[uint64]bool // requests a server engine answered from its cache
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), hitReqs: make(map[uint64]bool)} }

func (rc *recorder) id() uint64 { return rc.ids.Add(1) }

func (rc *recorder) now() int64 { return int64(time.Since(rc.t0)) }

func (rc *recorder) add(s span) {
	rc.mu.Lock()
	rc.spans = append(rc.spans, s)
	rc.mu.Unlock()
}

// reset drops what was recorded so far (a warm-up's).
func (rc *recorder) reset() {
	rc.mu.Lock()
	rc.spans = nil
	clear(rc.hitReqs)
	rc.mu.Unlock()
}

// markHit notes that a server's result cache answered the context's
// request, on at least one backend.
func (rc *recorder) markHit(ctx context.Context) {
	if ref, ok := refFrom(ctx); ok {
		rc.mu.Lock()
		rc.hitReqs[ref.req] = true
		rc.mu.Unlock()
	}
}

// cacheHit reports whether a server's result cache answered the
// context's request on any backend. Servers answer before the client's
// call returns, so the client asks once its call is done.
func (rc *recorder) cacheHit(ctx context.Context) bool {
	if rc == nil {
		return false
	}
	ref, ok := refFrom(ctx)
	if !ok {
		return false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.hitReqs[ref.req]
}

// retries counts the spans of a name beyond the first per request and
// note: for round trips, the attempts a request made to one backend after
// its first.
func (rc *recorder) retries(name string) int {
	type key struct {
		req  uint64
		note string
	}
	seen := make(map[key]bool)
	n := 0
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, s := range rc.spans {
		if s.Name != name {
			continue
		}
		k := key{s.Req, s.Note}
		if seen[k] {
			n++
		}
		seen[k] = true
	}
	return n
}

// spanRef is the request and span a context belongs to.
type spanRef struct{ req, span uint64 }

type spanKey struct{}

func refFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// root records a new request's root span around fn. fn's context carries
// the request, so layers below can attach child spans. A nil recorder
// just calls fn.
func (rc *recorder) root(ctx context.Context, name string, fn func(context.Context)) {
	if rc == nil {
		fn(ctx)
		return
	}
	ref := spanRef{req: rc.id(), span: rc.id()}
	start := rc.now()
	fn(context.WithValue(ctx, spanKey{}, ref))
	rc.add(span{ID: ref.span, Req: ref.req, Name: name, Start: start, End: rc.now()})
}

// child records a span under the context's current span around fn, which
// returns the span's note. Without a recorder or a traced context it just
// calls fn.
func (rc *recorder) child(ctx context.Context, name string, fn func(context.Context) string) {
	ref, ok := refFrom(ctx)
	if rc == nil || !ok {
		fn(ctx)
		return
	}
	id := rc.id()
	start := rc.now()
	note := fn(context.WithValue(ctx, spanKey{}, spanRef{req: ref.req, span: id}))
	rc.add(span{ID: id, Parent: ref.span, Req: ref.req, Name: name, Start: start, End: rc.now(), Note: note})
}

// tracingTransport is the client-side HTTP boundary: it records one
// "remote.roundtrip" span per attempt, from sending the request until the
// response body is closed, and stamps the request with the request id
// header so the server's spans join the same request.
type tracingTransport struct {
	rc   *recorder
	next http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := refFrom(req.Context())
	if !ok {
		return t.next.RoundTrip(req)
	}
	id := t.rc.id()
	req = req.Clone(req.Context())
	req.Header.Set(requestIDHeader, fmt.Sprintf("%d/%d", ref.req, id))
	s := span{ID: id, Parent: ref.span, Req: ref.req, Name: "remote.roundtrip", Start: t.rc.now(), Note: req.URL.Host}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = t.rc.now()
		t.rc.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rc: t.rc, s: s}
	return resp, nil
}

// spanBody ends the round-trip span when the client closes the body.
type spanBody struct {
	io.ReadCloser
	rc   *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.rc.now()
		b.rc.add(b.s)
	})
	return err
}

// traceHandler is the server-side HTTP boundary: a middleware recording
// one "serve.handler" span per request that carries the request id
// header, with the handler's context carrying the span to the engine.
func traceHandler(rc *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID, parent, ok := parseRequestHeader(r.Header.Get(requestIDHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		id := rc.id()
		start := rc.now()
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{req: reqID, span: id})
		next.ServeHTTP(w, r.WithContext(ctx))
		rc.add(span{ID: id, Parent: parent, Req: reqID, Name: "serve.handler", Start: start, End: rc.now()})
	})
}

func parseRequestHeader(h string) (req, parent uint64, ok bool) {
	a, b, found := strings.Cut(h, "/")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return req, parent, err1 == nil && err2 == nil
}

// tracedEngine is the engine boundary inside a server: it records one
// "engine.query" span per traced query, noting whether the result cache
// answered it, sums the cache lookup time, and sums the seed, expansion
// and record-fetch phases of the queries the engine executed.
type tracedEngine struct {
	*vaq.Engine
	rc *recorder

	lookupNs atomic.Int64
	queries  atomic.Int64
	seedNs   atomic.Int64 // over executed queries
	expandNs atomic.Int64 // over executed queries
	fetchNs  atomic.Int64 // over executed queries
	executed atomic.Int64 // queries the cache did not answer
}

func (e *tracedEngine) Query(ctx context.Context, region vaq.Region, opts ...vaq.QueryOpt) ([]int64, error) {
	var (
		ids []int64
		err error
		tr  vaq.QueryTrace
	)
	e.rc.child(ctx, "engine.query", func(ctx context.Context) string {
		ids, err = e.Engine.Query(ctx, region, append(opts, vaq.WithTraceInto(&tr))...)
		if tr.CacheHit() {
			e.rc.markHit(ctx)
			return "hit"
		}
		return "miss"
	})
	e.lookupNs.Add(int64(tr.Phase(obs.PhaseCacheLookup)))
	e.queries.Add(1)
	if !tr.CacheHit() {
		e.seedNs.Add(int64(tr.Phase(obs.PhaseSeed)))
		e.expandNs.Add(int64(tr.Phase(obs.PhaseExpand)))
		e.fetchNs.Add(int64(tr.Phase(obs.PhasePageFetch)))
		e.executed.Add(1)
	}
	return ids, err
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus time covered by children
}

func (l layerTime) meanMS() float64 {
	if l.count == 0 {
		return 0
	}
	return ms(l.total) / float64(l.count)
}

func (l layerTime) selfMeanMS() float64 {
	if l.count == 0 {
		return 0
	}
	return ms(l.self) / float64(l.count)
}

// layers computes per-name span statistics. A span's self time is its
// duration minus the union of its children's intervals within it.
func (rc *recorder) layers() map[string]*layerTime {
	rc.mu.Lock()
	spans := append([]span(nil), rc.spans...)
	rc.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.count++
		lt.total += d
		lt.self += d - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of s's interval its children cover.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total, curStart, curEnd int64
	curStart, curEnd = -1, -1
	for _, k := range kids {
		st, en := max(k.Start, s.Start), min(k.End, s.End)
		if en <= st {
			continue
		}
		if st > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = st, en
		} else if en > curEnd {
			curEnd = en
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// write stores the spans as JSON lines under dir and returns the path.
func (rc *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, s := range rc.spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing span file: %w", err)
	}
	return path, nil
}

// finishTrace writes the span file and reports the per-name span times.
func (r *run) finishTrace() error {
	path, err := r.rec.write(r.outDir, r.workload, r.seed)
	if err != nil {
		return err
	}
	ls := r.rec.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := ls[n]
		r.report("span %-18s n=%-7d mean=%.4f ms self=%.4f ms", n, l.count, l.meanMS(), l.selfMeanMS())
	}
	r.report("spans written to %s", path)
	return nil
}
