package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"dpmg"
	"dpmg/internal/accountant"
	"dpmg/internal/encoding"
	"dpmg/internal/framing"
	"dpmg/internal/mg"
	"dpmg/internal/qos"
	"dpmg/internal/stream"
)

// replay drives the identical generated inputs single-threaded through
// each layer's public functions, in path order, recording one span per
// call. Every operation is one root span ("op.*") whose children are the
// layer calls, so a layer's self time is its own cost and the root's self
// time is the replay's unattributed glue.
type replay struct {
	tr       *tracer
	mgr      *dpmg.Manager
	universe uint64
	buckets  map[string]*qos.Bucket // ingest admission; empty when the workload has no ceiling
	refused  int64
	mg       map[string]*mg.Sketch

	buf     []stream.Item
	ackBuf  []byte
	unpub   map[string]int64
	acct    *accountant.Accountant
	mech    dpmg.Mechanism
	relSeed uint64
}

// newReplay builds an in-process manager whose streams match the server's
// (k, universe, shards resolve to the same defaults). Background publishing
// is disabled so the replay publishes on the server's volume cadence
// itself, inside a span; the QoS ceiling is left off the streams and
// applied through an explicit qos.Bucket span instead.
func newReplay(tr *tracer, k, universe int, maxRate float64, names []string) (*replay, error) {
	m, err := dpmg.NewManager(dpmg.StreamConfig{K: k, Universe: uint64(universe),
		Budget: dpmg.Budget{Eps: budgetEps, Delta: budgetDelta}, MaxIngestRate: -1,
		PublishEvery: -1, PublishInterval: -1})
	if err != nil {
		return nil, err
	}
	acct, err := accountant.New(accountant.Budget{Eps: budgetEps, Delta: budgetDelta})
	if err != nil {
		return nil, err
	}
	mech, ok := dpmg.MechanismByName(dpmg.MechanismGaussian)
	if !ok {
		return nil, fmt.Errorf("no gaussian mechanism registered")
	}
	r := &replay{tr: tr, mgr: m, universe: uint64(universe), mg: make(map[string]*mg.Sketch),
		buckets: make(map[string]*qos.Bucket), unpub: make(map[string]int64),
		acct: acct, mech: mech, relSeed: 1}
	// Calibration is memoized per parameter set; fill the memo before any
	// span, as the server's earlier releases have.
	if _, err := mech.Calibrate(dpmg.Params{Eps: relEps, Delta: relDelta},
		dpmg.Sensitivity{Class: dpmg.SensitivityMerged, K: k, Universe: uint64(universe)}); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, _, err := m.CreateStream(n, dpmg.StreamConfig{}); err != nil {
			return nil, err
		}
		r.mg[n] = mg.New(k, uint64(universe))
		if maxRate > 0 {
			// The server's per-stream bucket: burst of one second of rate.
			r.buckets[n] = qos.NewBucket(maxRate, int(maxRate))
		}
	}
	return r, nil
}

// encodeFrame renders a batch as the data frame a framing client writes.
func encodeFrame(seq uint32, items []stream.Item) []byte {
	var body bytes.Buffer
	encoding.MarshalItems(&body, items) //nolint:errcheck // bytes.Buffer writes cannot fail
	return append(framing.AppendHeader(nil, framing.Header{Type: framing.TypeData, Seq: seq, Len: uint32(body.Len())}), body.Bytes()...)
}

// encodeBody renders a batch as the body of POST /v1/streams/{s}/batch.
func encodeBody(items []stream.Item) []byte {
	var body bytes.Buffer
	encoding.MarshalItems(&body, items) //nolint:errcheck // bytes.Buffer writes cannot fail
	return body.Bytes()
}

// ingest replays one batch as the server's ingest path handles it: frame
// parse (framed only), item decode, route, admission (when a ceiling is
// set), sketch apply, and ack encode (framed only). A publish follows, as
// its own operation, whenever the stream has taken DefaultPublishEvery
// items since its last one. The single-threaded mg sketch baseline runs
// on the same items as a separate operation. now is the batch's time on
// the server-driving run's schedule, the clock admission decides on.
func (r *replay) ingest(name string, payload []byte, framed bool, now int64) error {
	t := r.tr
	req := t.nextReq()
	root := t.begin("op.ingest", req, -1)
	rd := bytes.NewReader(payload)
	var src io.Reader = rd
	var h framing.Header
	if framed {
		s := t.begin("framing.parse", req, root)
		var err error
		h, err = framing.ReadHeader(rd)
		t.end(s)
		if err != nil {
			return err
		}
		src = &io.LimitedReader{R: rd, N: int64(h.Len)}
	}
	s := t.begin("encoding.items_decode", req, root)
	items, err := encoding.AppendItems(r.buf[:0], src, framing.MaxDataItems, r.universe)
	t.end(s)
	r.buf = items
	if err != nil {
		return err
	}
	s = t.begin("dpmg.route", req, root)
	st, ok := r.mgr.Stream(name)
	t.end(s)
	if !ok {
		return fmt.Errorf("replay: unknown stream %q", name)
	}
	if b := r.buckets[name]; b != nil {
		s = t.begin("qos.admit", req, root)
		admitted := b.Allow(len(items), now)
		t.end(s)
		if !admitted {
			r.refused++
		}
	}
	s = t.begin("dpmg.update_batch", req, root)
	err = st.UpdateBatch(items)
	t.end(s)
	if err != nil {
		return err
	}
	if framed {
		s = t.begin("framing.ack", req, root)
		r.ackBuf = framing.AppendAck(r.ackBuf[:0], framing.Ack{Seq: h.Seq, Code: framing.AckOK, Info: uint64(st.Ingested())})
		t.end(s)
	}
	t.end(root)

	r.unpub[name] += int64(len(items))
	if r.unpub[name] >= dpmg.DefaultPublishEvery {
		r.unpub[name] = 0
		req := t.nextReq()
		root := t.begin("op.publish", req, -1)
		s := t.begin("dpmg.publish", req, root)
		err := st.Publish()
		t.end(s)
		t.end(root)
		if err != nil {
			return err
		}
	}

	req = t.nextReq()
	root = t.begin("op.mg", req, -1)
	s = t.begin("mg.apply", req, root)
	r.mg[name].UpdateBatch(items)
	t.end(s)
	t.end(root)
	return nil
}

// release replays one release: view, calibration, budget spend, noise.
func (r *replay) release(st *dpmg.Stream) error {
	t := r.tr
	req := t.nextReq()
	root := t.begin("op.release", req, -1)
	s := t.begin("dpmg.release_view", req, root)
	view, err := st.ReleaseView()
	t.end(s)
	if err != nil {
		return err
	}
	s = t.begin("mechanism.calibrate", req, root)
	cal, err := r.mech.Calibrate(dpmg.Params{Eps: relEps, Delta: relDelta}, view.Sens)
	t.end(s)
	if err != nil {
		return err
	}
	s = t.begin("accountant.spend", req, root)
	err = r.acct.Spend(relEps, relDelta)
	t.end(s)
	if err != nil {
		return err
	}
	s = t.begin("noise.draw", req, root)
	r.mech.Release(view, cal, r.relSeed)
	t.end(s)
	r.relSeed++
	t.end(root)
	return nil
}

// estimateBatch is how many point estimates one replayed estimate
// operation makes: one span per estimate would cost more than the
// estimate itself.
const estimateBatch = 64

// estimates replays estimateBatch published-view point reads.
func (r *replay) estimates(st *dpmg.Stream, items []stream.Item, off int) {
	t := r.tr
	req := t.nextReq()
	root := t.begin("op.estimate", req, -1)
	s := t.begin("dpmg.estimate", req, root)
	for i := 0; i < estimateBatch; i++ {
		st.Estimate(items[(off+i)%len(items)])
	}
	t.end(s)
	t.end(root)
}

// countWriter counts bytes written.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// snapshot replays one manager snapshot and returns its size.
func (r *replay) snapshot() (int64, error) {
	t := r.tr
	req := t.nextReq()
	root := t.begin("op.snapshot", req, -1)
	s := t.begin("encoding.snapshot", req, root)
	var cw countWriter
	err := r.mgr.Snapshot(&cw)
	t.end(s)
	t.end(root)
	return cw.n, err
}

// mgStats returns the mg baseline's decrements per thousand items.
func (r *replay) decrementsPerKitem() float64 {
	var n, d int64
	for _, sk := range r.mg {
		n += sk.N()
		d += sk.Decrements()
	}
	if n == 0 {
		return 0
	}
	return 1000 * float64(d) / float64(n)
}

// layerMetrics derives the per-layer metrics shared by every workload
// from the span aggregates. items is the number of items the replay
// ingested; tr supplies the calibrated per-span costs.
func layerMetrics(rep *report, agg map[string]*spanAgg, items int64, tr *tracer) {
	per := func(name string, div float64, scale float64) float64 {
		a := agg[name]
		if a == nil || div == 0 {
			return 0
		}
		return float64(a.self) / div / scale
	}
	cnt := func(name string) float64 {
		if a := agg[name]; a != nil {
			return float64(a.count)
		}
		return 0
	}
	it := float64(items)
	rep.metrics["framing.parse_ns_per_frame"] = per("framing.parse", cnt("framing.parse"), 1)
	rep.metrics["encoding.items_decode_ns_per_item"] = per("encoding.items_decode", it, 1)
	rep.metrics["encoding.summary_encode_us"] = per("encoding.summary_encode", cnt("encoding.summary_encode"), 1e3)
	rep.metrics["encoding.summary_decode_us"] = per("encoding.summary_decode", cnt("encoding.summary_decode"), 1e3)
	rep.metrics["encoding.snapshot_ms"] = per("encoding.snapshot", cnt("encoding.snapshot"), 1e6)
	rep.metrics["qos.admit_ns"] = per("qos.admit", cnt("qos.admit"), 1)
	rep.metrics["dpmg.route_ns"] = per("dpmg.route", cnt("dpmg.route"), 1)
	rep.metrics["dpmg.update_batch_ns_per_item"] = per("dpmg.update_batch", it, 1)
	rep.metrics["dpmg.publish_us"] = per("dpmg.publish", cnt("dpmg.publish"), 1e3)
	rep.metrics["dpmg.publishes"] = cnt("dpmg.publish")
	rep.metrics["dpmg.estimate_ns"] = per("dpmg.estimate", cnt("dpmg.estimate")*estimateBatch, 1)
	rep.metrics["dpmg.release_view_us"] = per("dpmg.release_view", cnt("dpmg.release_view"), 1e3)
	rep.metrics["mg.apply_ns_per_item"] = per("mg.apply", it, 1)
	rep.metrics["mechanism.calibrate_us"] = per("mechanism.calibrate", cnt("mechanism.calibrate"), 1e3)
	rep.metrics["noise.draw_us"] = per("noise.draw", cnt("noise.draw"), 1e3)
	rep.metrics["accountant.spend_ns"] = per("accountant.spend", cnt("accountant.spend"), 1)
	rep.metrics["cluster.cut_us"] = per("cluster.cut", cnt("cluster.cut"), 1e3)
	rep.metrics["cluster.spool_save_us"] = per("cluster.spool_save", cnt("cluster.spool_save"), 1e3)
	rep.metrics["cluster.spool_delete_us"] = per("cluster.spool_delete", cnt("cluster.spool_delete"), 1e3)
	rep.metrics["cluster.ship_rtt_us"] = per("cluster.ship_rtt", cnt("cluster.ship_rtt"), 1e3)
	rep.metrics["merge.fold_us_per_summary"] = per("merge.fold", cnt("merge.fold"), 1e3)

	// Stage sum: across every replayed operation, the layer self times
	// plus the root spans' own (unattributed) time equal the operations'
	// total time by construction; the gate is that the unattributed share,
	// less the calibrated cost of recording the spans, stays under
	// stageTolerance, i.e. the named layers account for the replayed path.
	var opDur, opSelf, ops, layerSpans int64
	for name, a := range agg {
		if strings.HasPrefix(name, "op.") {
			opDur += a.dur
			opSelf += a.self
			ops += a.count
		} else if !strings.HasPrefix(name, "req.") && !strings.HasPrefix(name, "http.") {
			layerSpans += a.count
		}
	}
	if opDur > 0 {
		tracing := layerSpans*tr.outsideNS + ops*tr.emptyNS
		rep.metrics["stage.unattributed_ratio"] = float64(max(0, opSelf-tracing)) / float64(opDur)
	}
	rep.gate(rep.metrics["stage.unattributed_ratio"] <= stageTolerance,
		"stage sum: %.1f%% of replayed time is outside every layer span (tolerance %.0f%%)",
		100*rep.metrics["stage.unattributed_ratio"], 100*stageTolerance)
}

// stageTolerance bounds the replay's unattributed time share.
const stageTolerance = 0.05

// layerSumUS is the mean summed self time of an operation's layer
// children (its duration minus its own self time), in microseconds.
func layerSumUS(agg map[string]*spanAgg, op string) float64 {
	a := agg[op]
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.dur-a.self) / float64(a.count) / 1e3
}

// meanSpanUS is the mean duration of the named spans, in microseconds.
func meanSpanUS(agg map[string]*spanAgg, name string) float64 {
	a := agg[name]
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.dur) / float64(a.count) / 1e3
}

// residual sets a residual metric: the traced end-to-end time per request
// minus the replayed layer time for the same path. The residual is the
// handler, network and JSON share; a clearly negative one would mean the
// layers cost more in the replay than the whole request did, so it is
// gated at −residualTolerance of the end-to-end time.
func residual(rep *report, metric string, e2eUS, layersUS float64) {
	res := e2eUS - layersUS
	rep.metrics[metric] = res
	rep.gate(e2eUS == 0 || res >= -residualTolerance*e2eUS,
		"%s: replayed layers take %.1fus, more than the traced request's %.1fus", metric, layersUS, e2eUS)
}

// residualTolerance bounds how far the replayed layers may exceed the
// traced request time before the stage sum counts as not closing.
const residualTolerance = 0.10
