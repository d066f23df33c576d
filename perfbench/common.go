package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptrace"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dpmg/internal/scenario"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// size fixes every input dimension of the three workloads. fullSize is the
// benchmark; smallSize keeps the smoke tests quick.
type size struct {
	setupReps int // set-ups per run; setup_s is their median

	// zipf-tcp-ingest
	zStreams, zK, zUniverse, zBatch, zPool int
	zSkew                                  float64
	zOpenRate                              float64 // batches/s per connection
	zReleases, zEstimates                  int
	zAcc                                   int // batches per fixed-input accuracy stream

	// hot-http-mixed
	hStreams, hK, hUniverse, hBatch, hPool int
	hWriteRate                             float64 // batches/s, one connection
	hSnapshot                              time.Duration
	hGateReleases                          int // post-quiesce releases per stream

	// edge-root-fanin
	fEdges, fStreams, fK, fUniverse, fBatch, fPool int
	fSkew                                          float64
	fReleases, fEstimates                          int
}

var fullSize = size{
	setupReps: 15,

	zStreams: 2, zK: 1024, zUniverse: 1 << 20, zBatch: 4096, zPool: 96, zSkew: 1.05,
	zOpenRate: 750, zReleases: 16, zEstimates: 256, zAcc: 48,

	hStreams: 8, hK: 1024, hUniverse: 512, hBatch: 256, hPool: 64,
	hWriteRate: 400, hSnapshot: time.Second, hGateReleases: 8,

	fEdges: 2, fStreams: 16, fK: 1024, fUniverse: 1 << 16, fBatch: 4096, fPool: 12, fSkew: 1.05,
	fReleases: 32, fEstimates: 256,
}

var smallSize = size{
	setupReps: 2,

	zStreams: 2, zK: 64, zUniverse: 1 << 12, zBatch: 256, zPool: 8, zSkew: 1.05,
	zOpenRate: 50, zReleases: 8, zEstimates: 64, zAcc: 4,

	hStreams: 2, hK: 64, hUniverse: 32, hBatch: 32, hPool: 8,
	hWriteRate: 100, hSnapshot: 200 * time.Millisecond, hGateReleases: 2,

	fEdges: 2, fStreams: 3, fK: 32, fUniverse: 1 << 10, fBatch: 64, fPool: 4, fSkew: 1.05,
	fReleases: 6, fEstimates: 64,
}

// Privacy parameters. Every value is dyadic, so the server's float64
// ledger sums releases exactly and the ledger gate can demand equality.
const (
	budgetEps   = 1 << 20
	budgetDelta = 0.5
	relEps      = 1.0
	relDelta    = 1.0 / (1 << 20)
	// topN is how many of the truly largest items the release-error
	// metric and gate look at.
	topN = 32
)

// zipfPool pre-generates pool batches of batch Zipf(skew) items over
// [1, universe] from seed: inputs exist before any timing starts.
func zipfPool(universe int, skew float64, seed uint64, pool, batch int) [][]stream.Item {
	z := workload.NewZipfian(universe, skew, seed)
	out := make([][]stream.Item, pool)
	for i := range out {
		out[i] = z.Stream(batch)
	}
	return out
}

// streamSeed derives a per-stream seed.
func streamSeed(seed uint64, tag string, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(fmt.Sprintf("%s/%d", tag, i)) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return seed*0x9e3779b97f4a7c15 ^ h
}

// truth is a stream's exact item counts, indexed by item.
type truth struct {
	count []int64
	n     int64
}

func newTruth(universe int) *truth { return &truth{count: make([]int64, universe+1)} }

// addBatches counts the first m batches of the cyclic pool sequence.
func (t *truth) addBatches(pool [][]stream.Item, m int) {
	for i := 0; i < m; i++ {
		for _, x := range pool[i%len(pool)] {
			t.count[x]++
		}
		t.n += int64(len(pool[i%len(pool)]))
	}
}

// add merges another truth into t.
func (t *truth) add(o *truth) {
	for i, c := range o.count {
		t.count[i] += c
	}
	t.n += o.n
}

// top returns the n items with the largest counts (ties by item id).
func (t *truth) top(n int) []stream.Item {
	items := make([]stream.Item, 0, len(t.count))
	for x, c := range t.count {
		if c > 0 {
			items = append(items, stream.Item(x))
		}
	}
	sort.Slice(items, func(i, j int) bool {
		ci, cj := t.count[items[i]], t.count[items[j]]
		if ci != cj {
			return ci > cj
		}
		return items[i] < items[j]
	})
	return items[:min(n, len(items))]
}

// probeItems returns n estimate probes for a stream: its top items first,
// then uniform draws from the universe.
func (t *truth) probeItems(n int, seed uint64) []stream.Item {
	out := append([]stream.Item(nil), t.top(min(n, topN))...)
	rng := rand.New(rand.NewPCG(seed, seed^0x51ed))
	for len(out) < n {
		out = append(out, stream.Item(rng.IntN(len(t.count)-1)+1))
	}
	return out
}

// envelope is Lemma 8's error bound N/(k+1) for a summary of k counters.
func envelope(n int64, k int) float64 { return float64(n) / float64(k+1) }

// checkEstimate gates one estimate against the Lemma 8 envelope:
// truth − N/(k+1) ≤ estimate ≤ truth.
func checkEstimate(rep *report, where string, x stream.Item, est int64, t *truth, k int) {
	c := t.count[x]
	rep.gate(float64(est) >= float64(c)-envelope(t.n, k) && est <= c,
		"%s: estimate(%d)=%d outside [%d−%.1f, %d]", where, x, est, c, envelope(t.n, k), c)
}

// noiseZ is the noise allowance in standard deviations of the release's
// Gaussian noise (its "sigma" metadata). A run checks at most about 1e8
// released values; by the Gaussian tail bound P(|Z| > z) ≤ 2·exp(−z²/2),
// z = 9 keeps the chance that any of them exceeds the allowance by noise
// alone below 1e-9. (The mechanism's own τ bound holds per release with
// probability 1−2δ, too weak for tens of thousands of releases a run.)
const noiseZ = 9

// releaseCheck gates one release document and returns the summed absolute
// error over the true top items. Every released item must lie within the
// Lemma 8 envelope widened by noiseZ·σ; a true top item may be absent only
// when that widened envelope reaches below the release threshold.
func releaseCheck(rep *report, where string, doc *scenario.ReleaseDoc, t *truth, k int, top []stream.Item) float64 {
	allow, thr := noiseZ*doc.Meta["sigma"], doc.Meta["threshold"]
	down, up := allow, allow
	env := envelope(t.n, k)
	for key, r := range doc.Items {
		x, err := strconv.ParseUint(key, 10, 64)
		if err != nil || x == 0 || x >= uint64(len(t.count)) {
			rep.gate(false, "%s: released item %q outside the universe", where, key)
			continue
		}
		c := float64(t.count[x])
		rep.gate(r >= c-env-down && r <= c+up,
			"%s: released %d=%.1f outside [%.0f−%.1f−%.1f, %.0f+%.1f]", where, x, r, c, env, down, c, up)
	}
	var sum float64
	for _, x := range top {
		c := float64(t.count[x])
		r, ok := doc.Items[strconv.FormatUint(uint64(x), 10)]
		if !ok {
			rep.gate(c-env-down <= thr, "%s: top item %d (count %.0f) missing from release", where, x, c)
		}
		sum += math.Abs(r - c)
	}
	return sum
}

// checkLedger gates a stream's /stats budget against the releases the
// benchmark saw admitted: the spent ε and δ must equal their exact sums.
func checkLedger(rep *report, where string, st *scenario.StatsDoc, admitted int) {
	rep.gate(st.Releases == admitted, "%s: /stats releases=%d, benchmark admitted %d", where, st.Releases, admitted)
	spentEps, spentDelta := budgetEps-st.RemainingEps, budgetDelta-st.RemainingDelta
	rep.gate(spentEps == float64(admitted)*relEps && spentDelta == float64(admitted)*relDelta,
		"%s: ledger spent (ε=%v, δ=%v), releases admitted sum to (ε=%v, δ=%v)",
		where, spentEps, spentDelta, float64(admitted)*relEps, float64(admitted)*relDelta)
}

// streamSpec is the POST /v1/streams template for a benchmark stream.
func streamSpec(k, universe int, maxRate float64) scenario.StreamSpec {
	return scenario.StreamSpec{K: k, Universe: uint64(universe), Mechanism: "gaussian",
		Eps: budgetEps, Delta: budgetDelta, MaxIngestRate: maxRate}
}

// httpStats counts the HTTP requests that had to dial a connection
// (httptrace ConnectStart) and, on traced runs, records each request's
// span with its write, await and read children.
type httpStats struct {
	mu           sync.Mutex
	total, dials int64
}

// call runs fn with an httptrace-instrumented context and returns its
// wall time. name labels the request span on traced runs; count says
// whether the request counts toward connection reuse (warm-up requests,
// which open the connections, do not).
func (h *httpStats) call(ctx context.Context, tr *tracer, name string, count bool, fn func(ctx context.Context) error) (time.Duration, error) {
	var gotConn, wrote, first time.Time
	var dialed bool
	ct := &httptrace.ClientTrace{
		ConnectStart:         func(string, string) { dialed = true },
		GotConn:              func(httptrace.GotConnInfo) { gotConn = time.Now() },
		WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
		GotFirstResponseByte: func() { first = time.Now() },
	}
	start := time.Now()
	err := fn(httptrace.WithClientTrace(ctx, ct))
	end := time.Now()
	h.mu.Lock()
	if count {
		h.total++
		if dialed {
			h.dials++
		}
	}
	h.mu.Unlock()
	if tr != nil {
		req := tr.nextReq()
		root := tr.add(name, req, -1, start, end)
		tr.add("http.write", req, root, gotConn, wrote)
		tr.add("http.await", req, root, wrote, first)
		tr.add("http.read", req, root, first, end)
	}
	return end.Sub(start), err
}

// ratio returns the share of counted requests that reused a connection
// instead of dialing one (1 when nothing was counted). A connection
// dialed during warm-up and first used later counts as reused: what the
// ratio guards against is dialing per request.
func (h *httpStats) ratio() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 1
	}
	return 1 - float64(h.dials)/float64(h.total)
}

// overhead compares operation times with spans on and off: closed-loop
// phases of a traced run alternate 250 ms windows with and without span
// recording, and the ratio of the mean times is the tracing overhead.
type overhead struct {
	mu       sync.Mutex
	start    time.Time
	on, off  time.Duration
	nOn, nOf int64
}

func newOverhead() *overhead { return &overhead{start: time.Now()} }

// tracerFor returns tr during "on" windows and nil otherwise.
func (o *overhead) tracerFor(tr *tracer) *tracer {
	if tr == nil || (time.Since(o.start)/(250*time.Millisecond))%2 == 1 {
		return nil
	}
	return tr
}

// note records one operation time under the window it ran in.
func (o *overhead) note(traced bool, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if traced {
		o.on += d
		o.nOn++
	} else {
		o.off += d
		o.nOf++
	}
}

// ratio returns mean(on)/mean(off) − 1.
func (o *overhead) ratio() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.nOn == 0 || o.nOf == 0 {
		return 0
	}
	return (float64(o.on)/float64(o.nOn))/(float64(o.off)/float64(o.nOf)) - 1
}

// setupTimes runs setup reps times, tearing down every set-up but the
// last, and returns the median duration in seconds with the kept result.
func setupTimes[T any](reps int, setup func() (T, error), teardown func(T)) (float64, T, error) {
	var kept T
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		// Collect the garbage of input generation and earlier set-ups
		// now, not while a set-up is timed.
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, kept, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if i < reps-1 {
			teardown(v)
		} else {
			kept = v
		}
	}
	return median(ds), kept, nil
}
