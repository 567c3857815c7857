// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the public engine API for a fixed time, checks
// every answer against an independent brute-force oracle, and prints the
// workload's metrics: a human-readable report, then one JSON result line.
//
//	e2ebench --workload paper-irregular --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, measured by a traced phase that records
// spans at each layer boundary (written to --out-dir at exit). See
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// perLayer are the per-layer metrics of the traced run.
var perLayer = []metricDef{
	{"delaunay.build_s", "s"},
	{"voronoi.arena_build_s", "s"},
	{"index.build_s", "s"},
	{"storage.build_s", "s"},
	{"voronoi.arena_bytes_per_site", "B"},
	{"core.useful_frac", "frac"},
	{"core.index_nodes_per_query", "count"},
	{"core.cell_tests_per_query", "count"},
	{"core.seed_ms", "ms"},
	{"core.expand_ms", "ms"},
	{"core.voronoi_over_traditional", "ratio"},
	{"geom.prepare_us", "us"},
	{"geom.contains_ns", "ns"},
	{"storage.page_reads_per_query", "count"},
	{"storage.hit_rate", "frac"},
	{"storage.fetch_ms", "ms"},
	{"exec.batch_ms", "ms"},
	{"exec.chunk_wait_ms", "ms"},
	{"exec.worker_busy_frac", "frac"},
	{"shard.fanout_per_query", "count"},
	{"shard.pruned_frac", "frac"},
	{"shard.straggler_ms", "ms"},
	{"rcache.hit_rate", "frac"},
	{"rcache.lookup_us", "us"},
	{"rcache.evictions_per_query", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.bytes_per_result", "B"},
	{"serve.handler_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"remote.roundtrip_ms", "ms"},
	{"remote.net_ms", "ms"},
	{"remote.merge_ms", "ms"},
	{"remote.retries", "count"},
	{"dynamic.publish_ms", "ms"},
	{"dynamic.fresh_extra_ms", "ms"},
	{"dynamic.fresh_p50_ms", "ms"},
	{"dynamic.insert_p50_ms", "ms"},
	{"dynamic.insert_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// idleLayers lists per workload the per-layer metrics of the layers it
// does not exercise, by name or by layer prefix ending in "." (README.md's
// layer → workload map). A traced run reports them as 0; every other
// per-layer metric must be measured, or the run fails.
var idleLayers = map[string][]string{
	"paper-irregular": {"storage.build_s", "storage.page_reads_per_query", "storage.hit_rate", "exec.", "shard.", "rcache.", "serve.", "remote.", "dynamic.", "loadgen."},
	"batch-store":     {"rcache.", "serve.", "remote.", "dynamic.", "loadgen."},
	"served-hot":      {"storage.build_s", "storage.page_reads_per_query", "storage.hit_rate", "exec.", "shard.", "dynamic.", "loadgen."},
	"dynamic-mixed":   {"storage.build_s", "storage.page_reads_per_query", "storage.hit_rate", "exec.", "shard.", "serve.", "remote."},
}

// idle reports whether metric belongs to a layer the workload does not
// exercise.
func idle(workload, metric string) bool {
	for _, p := range idleLayers[workload] {
		if metric == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(metric, p)) {
			return true
		}
	}
	return false
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"paper-irregular": runPaperIrregular,
	"batch-store":     runBatchStore,
	"served-hot":      runServedHot,
	"dynamic-mixed":   runDynamicMixed,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string

	attempted, failed int
	values            map[string]float64
	rec               *recorder // span recorder of the traced phase; nil untraced
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// report prints one human-readable line.
func (r *run) report(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory for span files")
	flag.Parse()

	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload {%v} --seed N --seconds S --trace 0|1\n", names)
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		outDir:   *outDir,
		values:   make(map[string]float64),
	}
	if r.traced {
		for _, d := range perLayer {
			if idle(r.workload, d.name) {
				r.values[d.name] = 0
			}
		}
	}
	r.report("workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d", r.workload, r.seed, r.seconds, *trace, runtime.GOMAXPROCS(0))
	if err := runner(r); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: no operation completed\n", r.workload)
		os.Exit(1)
	}

	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	r.report("failed_frac = %.6f frac (%d of %d operations)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: metric %s was not measured\n", r.workload, d.name)
			os.Exit(1)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %d of %d operations returned a wrong answer or failed\n", r.workload, r.failed, r.attempted)
		os.Exit(1)
	}
}
