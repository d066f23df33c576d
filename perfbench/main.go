// Command perfbench is the repository's end-to-end benchmark. It drives
// real dpmg-server processes (a standalone server, or a -role=root server
// fed by two in-process edges) with inputs generated from -seed, checks
// that every output is correct, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload zipf-tcp-ingest --seed 1 --seconds 30 --trace 0
//
// With -trace 0 the run reports the end-to-end metrics, measured with no
// spans recorded. With -trace 1 it repeats the server-driving run with
// request-level spans, then replays the same inputs single-threaded
// through each layer's public functions and reports per-layer metrics.
// See README.md for the workloads and the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric. The lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a -trace 0 run reports, for every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_us_per_op", "ref_us"},
	{"release_abs_err_mean", "items"},
	{"server_peak_rss_mb", "MB"},
}

// perLayer are the metrics a -trace 1 run reports, for every workload; a
// layer a workload does not reach reports 0.
var perLayer = []metricSpec{
	{"e2e.closed_loop_per_s", "1/s"},
	{"e2e.write_ack_p50_ms", "ms"},
	{"e2e.write_ack_p99_ms", "ms"},
	{"e2e.release_p50_ms", "ms"},
	{"e2e.release_p99_ms", "ms"},
	{"e2e.estimate_p50_ms", "ms"},
	{"e2e.estimate_p99_ms", "ms"},
	{"e2e.release_cpu_us", "ref_us"},
	{"e2e.estimate_cpu_us", "ref_us"},
	{"framing.parse_ns_per_frame", "ns"},
	{"framing.frames", "count"},
	{"framing.residual_us_per_frame", "us"},
	{"encoding.items_decode_ns_per_item", "ns"},
	{"encoding.summary_encode_us", "us"},
	{"encoding.summary_decode_us", "us"},
	{"encoding.snapshot_ms", "ms"},
	{"encoding.snapshot_bytes", "bytes"},
	{"qos.admit_ns", "ns"},
	{"qos.refused_ratio", "ratio"},
	{"dpmg.route_ns", "ns"},
	{"dpmg.update_batch_ns_per_item", "ns"},
	{"dpmg.publish_us", "us"},
	{"dpmg.publishes", "count"},
	{"dpmg.estimate_ns", "ns"},
	{"dpmg.release_view_us", "us"},
	{"mg.apply_ns_per_item", "ns"},
	{"mg.decrements_per_kitem", "count"},
	{"mechanism.calibrate_us", "us"},
	{"noise.draw_us", "us"},
	{"accountant.spend_ns", "ns"},
	{"cluster.cut_us", "us"},
	{"cluster.spool_save_us", "us"},
	{"cluster.spool_delete_us", "us"},
	{"cluster.ship_rtt_us", "us"},
	{"merge.fold_us_per_summary", "us"},
	{"cluster.fold_ok_ratio", "ratio"},
	{"server.cpu_util", "ratio"},
	{"bench.cpu_util", "ratio"},
	{"server.cpu_us_per_op", "ref_us"},
	{"bench.cpu_us_per_op", "ref_us"},
	{"gen.late_p99_ms", "ms"},
	{"http.conn_reuse_ratio", "ratio"},
	{"http.residual_us_per_request", "us"},
	{"trace.e2e_us_per_op", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"stage.unattributed_ratio", "ratio"},
	{"ops_failed_ratio", "ratio"},
}

// benchWorkload is one named traffic mix.
type benchWorkload struct {
	name string
	run  func(e *env) (*report, error)
}

var workloads = []benchWorkload{
	{"zipf-tcp-ingest", runZipf},
	{"hot-http-mixed", runHot},
	{"edge-root-fanin", runFanin},
}

// env is what a workload run gets: where the server binary and the run
// directory are, the seed, the measuring time and the size.
type env struct {
	ctx     context.Context
	bin     string
	dir     string
	seed    uint64
	seconds float64
	sz      size
	tr      *tracer // nil when -trace 0
}

// logf writes progress to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// report collects a run's measurements and gate verdicts.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	gateFails []string
	timings   []timing
	row       map[string]float64 // printed beside the workload row
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), row: make(map[string]float64)}
}

// gate records a failed output check.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gateFails = append(r.gateFails, fmt.Sprintf(format, args...))
	}
}

// setTiming stores a latency series as e2e.<prefix>_p50_ms and
// e2e.<prefix>_p99_ms, where p99 stands for the highest percentile with
// ten samples beyond it.
func (r *report) setTiming(prefix string, ds []time.Duration) {
	t := summarize(prefix, ds)
	r.timings = append(r.timings, t)
	r.metrics["e2e."+prefix+"_p50_ms"] = t.p50
	r.metrics["e2e."+prefix+"_p99_ms"] = t.tail
}

// setCPU stores the CPU per operation of the workload's main phase: the
// server's and the benchmark process's (clients, and on fan-in the
// edges), and their sum, the whole path's cost.
func (r *report) setCPU(s *cpuSampler) error {
	srv, cli, err := s.finish()
	r.metrics["cpu_us_per_op"] = srv + cli
	r.metrics["server.cpu_us_per_op"] = srv
	r.metrics["bench.cpu_us_per_op"] = cli
	return err
}

// result is the contract's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: zipf-tcp-ingest, hot-http-mixed or edge-root-fanin")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measuring time per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		bin     = flag.String("server", "", "path to a dpmg-server binary")
		workdir = flag.String("workdir", ".bench_build/runs", "directory for per-run server state and span dumps")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace, *bin, *workdir, false)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// run executes one workload run and returns its result line; small
// selects the tiny inputs of the smoke tests.
func run(name string, seed uint64, seconds float64, trace int, bin, workdir string, small bool) (*result, error) {
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown -workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if bin == "" {
		return nil, fmt.Errorf("-server is required")
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	dir, err := runDir(workdir, name, seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{ctx: context.Background(), bin: bin, dir: dir, seed: seed, seconds: seconds, sz: fullSize}
	if small {
		e.sz = smallSize
	}
	if trace == 1 {
		e.tr = newTracer()
	}
	rep, err := w.run(e)
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		path := fmt.Sprintf("%s/spans-%s-%d.jsonl", workdir, name, seed)
		spans := e.tr.all()
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		logf("%d spans written to %s", len(spans), path)
	}
	return finish(name, rep, e.tr != nil)
}

// finish prints the human-readable row and builds the result line.
func finish(name string, rep *report, trace bool) (*result, error) {
	for _, t := range rep.timings {
		fmt.Println("timing", t)
	}
	keys := make([]string, 0, len(rep.row))
	for k := range rep.row {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "row %s", name)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g", k, rep.row[k])
	}
	fmt.Println(b.String())
	for _, g := range rep.gateFails {
		fmt.Println("gate FAILED:", g)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
		for k, v := range rep.row {
			rep.metrics[k] = v
		}
	}
	res := &result{Correct: len(rep.gateFails) == 0 && rep.failed == 0,
		Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: make(map[string]metric)}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok && !trace {
			return nil, fmt.Errorf("workload %s did not measure %s", name, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured %s = %v", name, s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}
