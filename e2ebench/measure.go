package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run builds its engines; setup_s is the
// median build time.
const setupReps = 5

// samples is a list of per-operation durations.
type samples []time.Duration

// quantileMS returns the nearest-rank q-quantile in milliseconds.
func (s samples) quantileMS(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return ms(c[min(max(i, 0), len(c)-1)])
}

// meanMS returns the mean in milliseconds.
func (s samples) meanMS() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return ms(sum) / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := slices.Clone(vs)
	slices.Sort(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// liveHeapMiB returns the live heap after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// buildRepeated builds the workload's serving state setupReps times,
// releasing each instance before building the next, and keeps the last.
// It records setup_s (median build time) and heap_mb (live heap the kept
// instance adds, after a GC).
func buildRepeated[T any](r *run, build func() (T, error), release func(T)) (T, error) {
	var v, zero T
	base := liveHeapMiB()
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(v)
			v = zero
			runtime.GC()
		}
		t0 := time.Now()
		nv, err := build()
		if err != nil {
			return zero, err
		}
		times = append(times, time.Since(t0).Seconds())
		v = nv
	}
	r.set("setup_s", median(times))
	r.set("heap_mb", liveHeapMiB()-base)
	r.report("setup_s = %.4f s (median of n=%d builds: %.4f)", r.values["setup_s"], len(times), times)
	r.report("heap_mb = %.2f MiB (live heap added by set-up)", r.values["heap_mb"])
	return v, nil
}

// loopResult is what one timed loop measured.
type loopResult struct {
	ops       []opSample // in completion order
	late      samples    // open loop only: how late each operation was sent
	attempted int
	failed    int
	elapsed   time.Duration
}

// opSample is one completed operation.
type opSample struct {
	end     time.Duration // completion, since the loop started
	lat     time.Duration
	regions int // regions answered (a batch answers many)
}

// opFunc runs operation seq on a client and returns the regions it
// answered and whether every answer matched the oracle.
type opFunc func(client, seq int) (regions int, ok bool)

// merge folds per-client results into one, in completion order.
func merge(parts []loopResult, elapsed time.Duration) loopResult {
	out := loopResult{elapsed: elapsed}
	for _, p := range parts {
		out.ops = append(out.ops, p.ops...)
		out.late = append(out.late, p.late...)
		out.attempted += p.attempted
		out.failed += p.failed
	}
	slices.SortFunc(out.ops, func(a, b opSample) int { return int(a.end - b.end) })
	return out
}

func (lr *loopResult) add(start time.Time, from time.Time, regions int, ok bool) {
	now := time.Now()
	lr.ops = append(lr.ops, opSample{end: now.Sub(start), lat: now.Sub(from), regions: regions})
	lr.attempted++
	if !ok {
		lr.failed++
	}
}

// lat returns every operation's latency.
func (lr loopResult) lat() samples {
	out := make(samples, len(lr.ops))
	for i, op := range lr.ops {
		out[i] = op.lat
	}
	return out
}

// regions is the number of regions answered.
func (lr loopResult) regions() int {
	n := 0
	for _, op := range lr.ops {
		n += op.regions
	}
	return n
}

// Throughput and latency are reported as medians over up to numChunks
// consecutive chunks of equally many operations, in completion order, so
// a burst of interference from other processes on the machine shifts one
// or two chunks rather than the reported figure.
const numChunks = 15

func (lr loopResult) chunks() [][]opSample { return lr.chunksOf(numChunks) }

func (lr loopResult) chunksOf(n int) [][]opSample {
	n = min(n, len(lr.ops))
	out := make([][]opSample, 0, n)
	for i := range n {
		out = append(out, lr.ops[len(lr.ops)*i/n:len(lr.ops)*(i+1)/n])
	}
	return out
}

// qps is regions answered per second: the median over chunks of a
// chunk's regions divided by the time from the previous chunk's last
// completion (or the loop start) to its own.
func (lr loopResult) qps() float64 {
	var vs []float64
	var prev time.Duration
	for _, c := range lr.chunks() {
		n := 0
		for _, op := range c {
			n += op.regions
		}
		end := c[len(c)-1].end
		if end > prev {
			vs = append(vs, float64(n)/(end-prev).Seconds())
		}
		prev = end
	}
	return median(vs)
}

// latencyMS returns the q-quantile latency: the median over as many
// chunks (up to numChunks) as leave ten samples beyond the quantile in
// each, or the quantile over all operations when fewer than three chunks
// would.
func (lr loopResult) latencyMS(q float64) float64 {
	n := min(numChunks, int(float64(len(lr.ops))*(1-q)/10))
	if n < 3 {
		return lr.lat().quantileMS(q)
	}
	cs := lr.chunksOf(n)
	vs := make([]float64, len(cs))
	for i, c := range cs {
		s := make(samples, len(c))
		for j, op := range c {
			s[j] = op.lat
		}
		vs[i] = s.quantileMS(q)
	}
	return median(vs)
}

// closedLoop runs op back to back on clients goroutines for d: each client
// sends its next operation when the previous one returns. Operation
// numbers come from one shared counter.
func closedLoop(clients int, d time.Duration, op opFunc) loopResult {
	var seq atomic.Int64
	parts := make([]loopResult, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				n, ok := op(c, int(seq.Add(1)-1))
				parts[c].add(start, t0, n, ok)
			}
		}()
	}
	wg.Wait()
	return merge(parts, time.Since(start))
}

// openLoop offers operations at a fixed rate for d: operation k is due at
// start + k/rate whether or not earlier ones have returned, and clients
// goroutines send them in due order. Latency counts from the due time
// whenever the client was still busy with an earlier operation then, so a
// stall also counts against the operations queued behind it. A client that
// was idle at the due time sends on waking, and latency counts from that
// send: the wake-up overshoot of the generator's own timer (up to a
// millisecond, where the runtime's poller sleeps in whole milliseconds) is
// not the system's delay. Lateness, send time minus due time, is recorded
// for every operation.
func openLoop(clients int, rate float64, d time.Duration, op opFunc) loopResult {
	var seq atomic.Int64
	parts := make([]loopResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start // when the client finished its previous operation
			for {
				k := int(seq.Add(1) - 1)
				offset := time.Duration(float64(k) / rate * 1e9)
				if offset >= d {
					return
				}
				due := start.Add(offset)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				send := time.Now()
				parts[c].late = append(parts[c].late, send.Sub(due))
				from := due
				if free.Before(due) {
					from = send
				}
				n, ok := op(c, k)
				parts[c].add(start, from, n, ok)
				free = time.Now()
			}
		}()
	}
	wg.Wait()
	return merge(parts, time.Since(start))
}

// phaseDuration is the length of the untraced measurement: the whole run,
// or half of it when the other half is the traced phase.
func (r *run) phaseDuration() time.Duration {
	d := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		d /= 2
	}
	return d
}

// countLoop adds a loop's operations to the run's correctness tally.
func (r *run) countLoop(lr loopResult) {
	r.attempted += lr.attempted
	r.failed += lr.failed
}

// setLoop records qps, p50_ms and p99_ms from a measured loop.
func (r *run) setLoop(what string, lr loopResult) {
	r.countLoop(lr)
	r.setThroughput(what, lr)
	r.setLatency(what, lr)
}

func (r *run) setThroughput(what string, lr loopResult) {
	r.set("qps", lr.qps())
	r.report("qps = %.2f 1/s (%s: %d regions in %d operations over %.2f s; median of %d chunks)",
		lr.qps(), what, lr.regions(), len(lr.ops), lr.elapsed.Seconds(), len(lr.chunks()))
}

func (r *run) setLatency(what string, lr loopResult) {
	r.set("p50_ms", lr.latencyMS(0.50))
	r.set("p99_ms", lr.latencyMS(0.99))
	r.report("p50_ms = %.4f ms, p99_ms = %.4f ms (%s, n=%d in %d chunks; all operations: p50 %.4f ms, p99 %.4f ms)",
		r.values["p50_ms"], r.values["p99_ms"], what, len(lr.ops), len(lr.chunks()), lr.lat().quantileMS(0.50), lr.lat().quantileMS(0.99))
}

// setOverhead records how much slower the traced loop ran than the
// untraced one on the same workload.
func (r *run) setOverhead(plain, traced loopResult) {
	r.set("trace.overhead_frac", 1-traced.qps()/plain.qps())
	r.report("trace: traced %.2f 1/s vs untraced %.2f 1/s", traced.qps(), plain.qps())
}
