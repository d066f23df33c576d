package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpmg/internal/scenario"
	"dpmg/internal/stream"
)

// hotRig is one hot-http-mixed deployment: a standalone server with
// durable state, one HTTP sender per stream (all on the writer's
// connection) and the analyst's client.
type hotRig struct {
	srv     *server
	senders []*scenario.Sender
	next    []int // batches acked per stream
	hs      *httpStats
}

func (h *hotRig) close() { h.srv.stop() }

// maxRate is the per-stream ingest ceiling: far above the offered load, so
// admission runs on every batch and never refuses one.
func (sz size) hotMaxRate() float64 {
	return 100 * sz.hWriteRate * float64(sz.hBatch) / float64(sz.hStreams)
}

// runHot is hot-http-mixed: writes and reads side by side over HTTP. One
// connection posts 256-item batches open loop at a fixed rate across 8
// streams (k=1024, universe 512, so every item keeps its own counter and
// Misra-Gries never decrements); the other is an analyst with one request
// in flight, repeating 1 release to 8 estimates, one such cycle per
// writer batch: first open loop at the writer's fixed rate, then closed
// loop in lockstep. The server snapshots its state every second and
// admits every batch through its QoS ceiling.
func runHot(e *env) (*report, error) {
	sz, rep := e.sz, newReport()
	names := make([]string, sz.hStreams)
	pools := make([][][]stream.Item, sz.hStreams)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i)
		pools[i] = zipfPool(sz.hUniverse, 1.05, streamSeed(e.seed, "hot", i), sz.hPool, sz.hBatch)
	}
	rng := rand.New(rand.NewPCG(e.seed, 0x407))
	launches := 0
	setup := func() (*hotRig, error) {
		launches++
		state, err := subdir(e.dir, fmt.Sprintf("state-%d", launches))
		if err != nil {
			return nil, err
		}
		srv, err := launchServer(e.ctx, e.bin, filepath.Join(e.dir, fmt.Sprintf("server-%d.log", launches)), []string{
			"-state", state, "-snapshot-interval", sz.hSnapshot.String(),
			"-max-ingest-rate", strconv.FormatFloat(sz.hotMaxRate(), 'f', -1, 64),
			"-k", strconv.Itoa(sz.hK), "-d", strconv.Itoa(sz.hUniverse),
			"-eps", fmt.Sprint(budgetEps), "-delta", fmt.Sprint(budgetDelta)})
		if err != nil {
			return nil, err
		}
		h := &hotRig{srv: srv, next: make([]int, len(names)), hs: &httpStats{}}
		target := scenario.Target{BaseURL: "http://" + srv.httpAddr}
		for _, n := range names {
			if err := srv.client.CreateStream(e.ctx, n, streamSpec(sz.hK, sz.hUniverse, sz.hotMaxRate())); err != nil {
				h.close()
				return nil, err
			}
			h.senders = append(h.senders, scenario.NewSender(srv.client, target, n, scenario.TransportHTTP))
		}
		// Warm-up: one acked batch per stream on the writer while the
		// analyst polls estimates, until both connections are open.
		var wg sync.WaitGroup
		var werr error
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(stop)
			for i := range names {
				if werr = h.senders[i].Send(e.ctx, pools[i][0]); werr != nil {
					return
				}
				h.next[i] = 1
			}
		}()
		var aerr error
		for done := false; !done; {
			select {
			case <-stop:
				done = true
			default:
			}
			if _, aerr = srv.client.Estimate(e.ctx, names[0], 1); aerr != nil {
				break
			}
		}
		wg.Wait()
		if werr != nil || aerr != nil {
			h.close()
			return nil, fmt.Errorf("warm-up: %v %v", werr, aerr)
		}
		// One release fills the server's calibration memo, which every
		// later release with these parameters reads.
		if _, err := srv.client.Release(e.ctx, names[0], relEps, relDelta); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up release: %w", err)
		}
		return h, nil
	}
	setupS, h, err := setupTimes(sz.setupReps, setup, (*hotRig).close)
	if err != nil {
		return nil, err
	}
	defer h.close()
	rep.metrics["setup_s"] = setupS

	cpuS, err := startCPU(h.srv.pid())
	if err != nil {
		return nil, err
	}
	cpuB, err := startCPU(os.Getpid())
	if err != nil {
		return nil, err
	}

	// write posts the writer's next batch; batch j goes to stream j mod
	// streams.
	written := 0
	write := func() error {
		i := written % len(names)
		_, err := h.hs.call(e.ctx, e.tr, "req.batch", true, func(ctx context.Context) error {
			return h.senders[i].Send(ctx, pools[i][h.next[i]%len(pools[i])])
		})
		if err == nil {
			h.next[i]++
			written++
		}
		return err
	}

	// ask makes the analyst's request c: cycles of 1 release then 8
	// estimates, one request in flight.
	type seenEst struct {
		stream int
		item   stream.Item
		est    int64
	}
	var relLat, estLat []time.Duration
	var seen []seenEst
	admitted := map[string]int{names[0]: 1} // the warm-up release
	ov := newOverhead()
	var analystOps int64
	ask := func(c int) {
		tr := ov.tracerFor(e.tr)
		analystOps++
		if c%9 == 0 {
			i := (c / 9) % len(names)
			d, err := h.hs.call(e.ctx, tr, "req.release", true, func(ctx context.Context) error {
				_, err := h.srv.client.Release(ctx, names[i], relEps, relDelta)
				return err
			})
			ov.note(tr != nil, d)
			if err != nil {
				rep.failed++
				rep.gate(false, "live release %s: %v", names[i], err)
				return
			}
			admitted[names[i]]++
			relLat = append(relLat, d)
			return
		}
		i := rng.IntN(len(names))
		x := stream.Item(rng.IntN(sz.hUniverse) + 1)
		var v int64
		d, err := h.hs.call(e.ctx, tr, "req.estimate", true, func(ctx context.Context) error {
			var err error
			v, err = h.srv.client.Estimate(ctx, names[i], x)
			return err
		})
		ov.note(tr != nil, d)
		if err != nil {
			rep.failed++
			rep.gate(false, "live estimate %s/%d: %v", names[i], x, err)
			return
		}
		estLat = append(estLat, d)
		seen = append(seen, seenEst{i, x, v})
	}

	// Phase 1: open loop. The writer keeps its fixed rate; the analyst is
	// paced at one cycle per writer batch, its requests spread evenly
	// between the writer's sends, and stops with the writer. Latencies are
	// taken here.
	nOpen := max(1, int(sz.hWriteRate*0.35*e.seconds))
	ol := &openLoop{start: time.Now().Add(5 * time.Millisecond), interval: time.Duration(float64(time.Second) / sz.hWriteRate)}
	var werr error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		werr = ol.run(e.ctx, nOpen, func(int) error { return write() })
	}()
	c := 0
open:
	for ; c < 9*nOpen; c++ {
		if w := time.Until(ol.start.Add(time.Duration((float64(c) + 0.5) * float64(ol.interval) / 9))); w > 0 {
			time.Sleep(w)
		}
		select {
		case <-writerDone:
			break open // a lagging analyst stops with the writer
		default:
		}
		ask(c)
	}
	<-writerDone
	if werr != nil {
		return nil, fmt.Errorf("writer: %w", werr)
	}
	rep.setTiming("write_ack", ol.lat)
	rep.setTiming("release", relLat)
	rep.setTiming("estimate", estLat)

	// Phase 2: closed loop in lockstep. Each step posts one batch beside
	// one analyst cycle and waits for both, so every run weighs writes and
	// reads alike however fast either side goes, and neither connection
	// waits on a schedule. CPU per operation is taken here.
	var ops atomic.Int64
	samp := startSampler(h.srv.pid(), &ops)
	closedStart := time.Now()
	deadline := closedStart.Add(time.Duration(0.35 * e.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		wc := make(chan error, 1)
		go func() { wc <- write() }()
		for end := c + 9; c < end; c++ {
			ask(c)
		}
		if err := <-wc; err != nil {
			return nil, fmt.Errorf("writer: %w", err)
		}
		ops.Add(10)
	}
	rep.metrics["e2e.closed_loop_per_s"] = float64(ops.Load()) / time.Since(closedStart).Seconds()
	elapsed := time.Since(ol.start)
	if err := rep.setCPU(samp); err != nil {
		return nil, err
	}
	utilS, err := cpuS.util()
	if err != nil {
		return nil, err
	}
	utilB, err := cpuB.util()
	if err != nil {
		return nil, err
	}
	var retries, batches int64
	for i, s := range h.senders {
		retries += s.Stats.Retries
		batches += int64(h.next[i])
	}
	rep.attempted += batches + retries + analystOps
	rep.failed += retries

	// Quiesced: the server must hold exactly what was acked, and every
	// live estimate must sit at or below the final exact count (counts
	// only grow, and Misra-Gries never overestimates).
	var set streamSet
	m, err := scrape(e.ctx, h.srv.httpAddr)
	if err != nil {
		return nil, err
	}
	var throttled int64
	for i, n := range names {
		t := newTruth(sz.hUniverse)
		t.addBatches(pools[i], h.next[i])
		set.add(n, t)
		st, err := h.srv.client.Stats(e.ctx, n)
		if err != nil {
			return nil, err
		}
		rep.gate(st.Items == t.n, "stream %s: items_ingested=%d, acked %d", n, st.Items, t.n)
		throttled += st.ThrottledIngest
		key := fmt.Sprintf("dpmg_stream_items_ingested_total{stream=%q}", n)
		rep.gate(m[key] == float64(t.n), "/metrics %s=%v, acked %d", key, m[key], t.n)
	}
	rep.gate(throttled == 0, "QoS refused %d batches under a ceiling far above the offered load", throttled)
	for _, s := range seen {
		c := set.truths[s.stream].count[s.item]
		rep.gate(s.est <= c, "live estimate %s/%d=%d above the final count %d", names[s.stream], s.item, s.est, c)
	}
	readDur := time.Duration(0.15 * e.seconds * float64(time.Second))
	rd, err := quiescedReads(e, rep, h.srv, sz.hK, set, set, sz.hGateReleases*len(names), 64*len(names), readDur, readDur, admitted, false)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(h.srv.pid())
	if err != nil {
		return nil, err
	}
	rep.metrics["server_peak_rss_mb"] = rss
	rep.attempted += rd.ops
	rep.row["gen.late_p99_ms"] = summarize("late", ol.late).tail
	rep.row["server.cpu_util"] = utilS
	rep.row["bench.cpu_util"] = utilB
	rep.row["http.conn_reuse_ratio"] = h.hs.ratio()
	rep.row["ops_failed_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.gate(h.hs.ratio() == 1, "HTTP connection reuse %.4f after warm-up, want 1", h.hs.ratio())

	if e.tr == nil {
		return rep, nil
	}
	// Traced run, part 2: replay the writer's batches in-process, with the
	// analyst's operations and the periodic snapshots interleaved at the
	// ratios the server-driving run saw.
	r, err := newReplay(e.tr, sz.hK, sz.hUniverse, sz.hotMaxRate(), names)
	if err != nil {
		return nil, err
	}
	bodies := make([][][]byte, len(names))
	for i := range names {
		for _, b := range pools[i] {
			bodies[i] = append(bodies[i], encodeBody(b))
		}
	}
	perBatch := float64(analystOps) / float64(max(batches, 1))
	batchesPerSnap := max(1, int(float64(batches)/(elapsed.Seconds()/sz.hSnapshot.Seconds())))
	probes := make([][]stream.Item, len(names))
	for i := range names {
		probes[i] = set.truths[i].probeItems(estimateBatch, streamSeed(e.seed, "probe", i))
	}
	replayEnd := time.Now().Add(time.Duration(0.25 * e.seconds * float64(time.Second)))
	var replayed, replayedBatches, snapBytes, snaps int64
	var credit float64
	cyc := 0
	per := make([]int, len(names))
	for j := 0; j < int(batches) && time.Now().Before(replayEnd); j++ {
		i := j % len(names)
		if per[i] >= h.next[i] {
			continue
		}
		// Batch j was writer send j−streams (the first streams batches are
		// the warm-up, sent before the schedule began); the closed-loop
		// phase's batches are stamped as if the schedule went on, and the
		// ceiling is far above either rate.
		now := ol.due(max(0, j-len(names))).UnixNano()
		if err := r.ingest(names[i], bodies[i][per[i]%len(pools[i])], false, now); err != nil {
			return nil, err
		}
		replayed += int64(len(pools[i][per[i]%len(pools[i])]))
		replayedBatches++
		per[i]++
		if j < len(names) {
			continue // the analyst starts once every stream holds data
		}
		for credit += perBatch; credit >= 1; credit-- {
			st, _ := r.mgr.Stream(names[cyc/9%len(names)])
			if cyc%9 == 0 {
				if err := r.release(st); err != nil {
					return nil, err
				}
			} else if cyc%9 == 1 {
				// The 8 estimates of a cycle replay as one batched span.
				r.estimates(st, probes[cyc/9%len(names)], cyc)
			}
			cyc++
		}
		if (j+1)%batchesPerSnap == 0 {
			n, err := r.snapshot()
			if err != nil {
				return nil, err
			}
			snapBytes += n
			snaps++
		}
	}
	agg := aggregate(e.tr.all(), e.tr.emptyNS)
	layerMetrics(rep, agg, replayed, e.tr)
	rep.metrics["mg.decrements_per_kitem"] = r.decrementsPerKitem()
	if snaps > 0 {
		rep.metrics["encoding.snapshot_bytes"] = float64(snapBytes) / float64(snaps)
	}
	rep.metrics["qos.refused_ratio"] = float64(throttled+r.refused) / float64(batches+replayedBatches)
	rep.metrics["trace.e2e_us_per_op"] = meanSpanUS(agg, "req.batch")
	rep.metrics["trace.overhead_ratio"] = ov.ratio()
	residual(rep, "http.residual_us_per_request", meanSpanUS(agg, "req.batch"), layerSumUS(agg, "op.ingest"))
	return rep, nil
}
