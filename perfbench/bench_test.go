package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {100, 0.9}, {19, 0.5}, {0, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Every choice leaves at least ten samples beyond it, and is the
	// highest such percentile below the 0.99 cap.
	for n := 20; n <= 3000; n++ {
		p := tailQuantile(n)
		beyond := n - int(math.Ceil(p*float64(n)))
		if beyond < 10 {
			t.Fatalf("n=%d: p=%v leaves %d samples beyond", n, p, beyond)
		}
		if p < 0.99 && n-int(math.Ceil((p+1.0/float64(n))*float64(n))) >= 10 {
			t.Fatalf("n=%d: p=%v is not the highest percentile with ten beyond", n, p)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(v, 0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := quantile(v, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}

// A stall charges every send queued behind it: latency runs from the due
// time, not from when the generator got round to sending.
func TestOpenLoopDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := time.Millisecond
	o := &openLoop{start: t0, interval: 10 * ms}
	o.record(0, t0, t0.Add(35*ms))            // stalls 35 ms
	o.record(1, t0.Add(35*ms), t0.Add(36*ms)) // due at 10 ms
	o.record(2, t0.Add(36*ms), t0.Add(37*ms)) // due at 20 ms
	o.record(3, t0.Add(40*ms), t0.Add(41*ms)) // back on schedule (due 30 ms, sent late 10)
	o.record(4, t0.Add(40*ms), t0.Add(41*ms)) // due 40 ms
	wantLat := []time.Duration{35 * ms, 26 * ms, 17 * ms, 11 * ms, 1 * ms}
	wantLate := []time.Duration{0, 25 * ms, 16 * ms, 10 * ms, 0}
	for i := range wantLat {
		if o.lat[i] != wantLat[i] || o.late[i] != wantLate[i] {
			t.Errorf("send %d: latency %v late %v, want %v and %v", i, o.lat[i], o.late[i], wantLat[i], wantLate[i])
		}
	}
}

func TestOpenLoopRunKeepsSchedule(t *testing.T) {
	o := &openLoop{start: time.Now(), interval: 5 * time.Millisecond}
	calls := 0
	err := o.run(context.Background(), 4, func(i int) error {
		calls++
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("run: %v after %d sends", err, calls)
	}
	// Send 1 was due 5 ms in but could only start after the 30 ms stall.
	if o.lat[1] < 25*time.Millisecond || o.late[1] < 25*time.Millisecond {
		t.Errorf("send 1 latency %v late %v, want both ≥ 25ms", o.lat[1], o.late[1])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "d", Parent: 2, Start: 25, End: 35},  // grandchild of op
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans, 5)
	if agg["op"].self != 50 || agg["a"].self != 15 || agg["d"].self != 5 {
		t.Errorf("aggregate: op %d a %d d %d, want 50 15 5", agg["op"].self, agg["a"].self, agg["d"].self)
	}
	if got := layerSumUS(agg, "op"); got != 0.05 {
		t.Errorf("layerSumUS = %v, want 0.05", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", tr.nextReq(), -1)
	tr.end(i)
	if i != -1 {
		t.Fatalf("nil tracer returned span %d", i)
	}
	tr = newTracer()
	if tr.emptyNS <= 0 || tr.emptyNS > int64(time.Millisecond) {
		t.Errorf("empty-span cost %dns out of range", tr.emptyNS)
	}
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// The metric and workload lists in the code and in BENCHMARK.json agree,
// and the file keeps the limits its readers enforce.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %d: %q (why %d chars), code has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s/%s, code has %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Bound != maxBound || m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound")
		}
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s/%s, code has %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, with
// every output gate on, and checks the traced split the benchmark is
// built to show.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches dpmg-server")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dpmg-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dpmg-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dpmg-server: %v\n%s", err, out)
	}
	layer := map[string]map[string]float64{}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			res, err := run(w.name, 7, 1, trace, bin, filepath.Join(dir, "runs"), true)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if trace == 1 {
				specs = perLayer
				layer[w.name] = map[string]float64{}
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Fatalf("%s trace=%d: metric %s missing or in %q", w.name, trace, s.name, m.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, s.name, m.Value)
				}
				if trace == 1 {
					layer[w.name][s.name] = m.Value
				}
			}
		}
	}
	z, h, f := layer["zipf-tcp-ingest"], layer["hot-http-mixed"], layer["edge-root-fanin"]
	if z["mg.decrements_per_kitem"] <= 0 || h["mg.decrements_per_kitem"] != 0 {
		t.Errorf("decrements per kitem: zipf %v (want > 0), hot %v (want 0)", z["mg.decrements_per_kitem"], h["mg.decrements_per_kitem"])
	}
	if h["qos.admit_ns"] <= 0 || z["qos.admit_ns"] != 0 || f["qos.admit_ns"] != 0 {
		t.Errorf("qos.admit_ns: hot %v, zipf %v, fanin %v; want it on hot only", h["qos.admit_ns"], z["qos.admit_ns"], f["qos.admit_ns"])
	}
	for _, m := range []string{"merge.fold_us_per_summary", "cluster.cut_us", "cluster.spool_save_us", "cluster.ship_rtt_us"} {
		if f[m] <= 0 || z[m] != 0 || h[m] != 0 {
			t.Errorf("%s: fanin %v, zipf %v, hot %v; want it on fanin only", m, f[m], z[m], h[m])
		}
	}
	for name, l := range layer {
		if l["http.conn_reuse_ratio"] != 1 || l["ops_failed_ratio"] != 0 {
			t.Errorf("%s: conn reuse %v, failed ratio %v", name, l["http.conn_reuse_ratio"], l["ops_failed_ratio"])
		}
	}
}
