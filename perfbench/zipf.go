package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpmg/internal/scenario"
	"dpmg/internal/stream"
)

// zipfRig is one zipf-tcp-ingest deployment: a standalone server with the
// framing listener, and one framing sender per stream.
type zipfRig struct {
	srv     *server
	ingest  string // framing listener address
	senders []*scenario.Sender
	next    []int // batches acked per stream, warm-up included
}

func (z *zipfRig) close() {
	for _, s := range z.senders {
		s.Close() //nolint:errcheck // tearing down
	}
	z.srv.stop()
}

// runZipf is zipf-tcp-ingest: 2 streams (k=1024, universe 2^20) take
// Zipf(1.05) batches of 4096 items over the framing TCP datapath, one
// connection each — first open loop at a fixed rate, then closed loop.
// Many items are distinct, so Misra-Gries decrements and smallest-zero
// evictions run on every batch. After ingest quiesces the run checks the
// server against the exact counts and times releases and estimates.
func runZipf(e *env) (*report, error) {
	sz, rep := e.sz, newReport()
	names := make([]string, sz.zStreams)
	pools := make([][][]stream.Item, sz.zStreams)
	for i := range names {
		names[i] = fmt.Sprintf("z%d", i)
		pools[i] = zipfPool(sz.zUniverse, sz.zSkew, streamSeed(e.seed, "zipf", i), sz.zPool, sz.zBatch)
	}
	launches := 0
	setup := func() (*zipfRig, error) {
		launches++
		ingest, err := freePort()
		if err != nil {
			return nil, err
		}
		srv, err := launchServer(e.ctx, e.bin, filepath.Join(e.dir, fmt.Sprintf("server-%d.log", launches)), []string{
			"-ingest-addr", ingest, "-k", strconv.Itoa(sz.zK), "-d", strconv.Itoa(sz.zUniverse),
			"-eps", fmt.Sprint(budgetEps), "-delta", fmt.Sprint(budgetDelta)})
		if err != nil {
			return nil, err
		}
		z := &zipfRig{srv: srv, ingest: ingest, next: make([]int, len(names))}
		target := scenario.Target{BaseURL: "http://" + srv.httpAddr, IngestAddr: ingest}
		for i, n := range names {
			if err := srv.client.CreateStream(e.ctx, n, streamSpec(sz.zK, sz.zUniverse, 0)); err != nil {
				z.close()
				return nil, err
			}
			s := scenario.NewSender(srv.client, target, n, scenario.TransportTCP)
			z.senders = append(z.senders, s)
			if err := s.Send(e.ctx, pools[i][0]); err != nil {
				z.close()
				return nil, err
			}
			z.next[i] = 1
		}
		return z, nil
	}
	setupS, z, err := setupTimes(sz.setupReps, setup, (*zipfRig).close)
	if err != nil {
		return nil, err
	}
	defer z.close()
	rep.metrics["setup_s"] = setupS

	cpuS, err := startCPU(z.srv.pid())
	if err != nil {
		return nil, err
	}
	cpuB, err := startCPU(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Phase 1: open loop, each connection on its own fixed schedule.
	openDur := 0.35 * e.seconds
	nOpen := max(1, int(sz.zOpenRate*openDur))
	interval := time.Duration(float64(time.Second) / sz.zOpenRate)
	start := time.Now().Add(5 * time.Millisecond)
	loops := make([]*openLoop, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i := range names {
		loops[i] = &openLoop{start: start.Add(time.Duration(i) * interval / time.Duration(len(names))), interval: interval}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = loops[i].run(e.ctx, nOpen, func(int) error {
				req := e.tr.nextReq()
				sp := e.tr.begin("req.framing", req, -1)
				err := z.senders[i].Send(e.ctx, pools[i][z.next[i]%len(pools[i])])
				e.tr.end(sp)
				if err == nil {
					z.next[i]++
				}
				return err
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
	}

	// Phase 2: closed loop, each connection sends its next batch when the
	// previous one is acked.
	closedDur := time.Duration(0.35 * e.seconds * float64(time.Second))
	ov := newOverhead()
	var acked atomic.Int64
	samp := startSampler(z.srv.pid(), &acked)
	var items atomic.Int64
	closedStart := time.Now()
	deadline := closedStart.Add(closedDur)
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				tr := ov.tracerFor(e.tr)
				req := tr.nextReq()
				ts := time.Now()
				sp := tr.begin("req.framing", req, -1)
				b := pools[i][z.next[i]%len(pools[i])]
				err := z.senders[i].Send(e.ctx, b)
				tr.end(sp)
				ov.note(tr != nil, time.Since(ts))
				if err != nil {
					errs[i] = err
					return
				}
				z.next[i]++
				acked.Add(1)
				items.Add(int64(len(b)))
			}
		}(i)
	}
	wg.Wait()
	rep.metrics["e2e.closed_loop_per_s"] = float64(items.Load()) / time.Since(closedStart).Seconds()
	if err := rep.setCPU(samp); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
	}
	utilS, err := cpuS.util()
	if err != nil {
		return nil, err
	}
	utilB, err := cpuB.util()
	if err != nil {
		return nil, err
	}

	var lat, late []time.Duration
	for _, l := range loops {
		lat = append(lat, l.lat...)
		late = append(late, l.late...)
	}
	rep.setTiming("write_ack", lat)
	var frames, retries int64
	for i, s := range z.senders {
		frames += int64(z.next[i])
		retries += s.Stats.Retries
	}
	rep.attempted += frames + retries
	rep.failed += retries

	// Quiesced: the server must hold exactly what was acked.
	truths := make([]*truth, len(names))
	var total int64
	for i := range names {
		truths[i] = newTruth(sz.zUniverse)
		truths[i].addBatches(pools[i], z.next[i])
		total += truths[i].n
	}
	m, err := scrape(e.ctx, z.srv.httpAddr)
	if err != nil {
		return nil, err
	}
	rep.gate(m["dpmg_ingest_items_total"] == float64(total), "/metrics dpmg_ingest_items_total=%v, acked %d", m["dpmg_ingest_items_total"], total)
	rep.gate(m["dpmg_ingest_refusals_total"] == 0, "/metrics dpmg_ingest_refusals_total=%v", m["dpmg_ingest_refusals_total"])
	rep.gate(m["dpmg_ingest_frames_total"] == float64(frames+int64(len(names))), "/metrics dpmg_ingest_frames_total=%v, sent %d data + %d bind", m["dpmg_ingest_frames_total"], frames, len(names))
	for i, n := range names {
		st, err := z.srv.client.Stats(e.ctx, n)
		if err != nil {
			return nil, err
		}
		rep.gate(st.Items == truths[i].n, "stream %s: items_ingested=%d, acked %d", n, st.Items, truths[i].n)
		rep.gate(st.ThrottledIngest == 0, "stream %s: throttled_ingest=%d", n, st.ThrottledIngest)
		key := fmt.Sprintf("dpmg_stream_items_ingested_total{stream=%q}", n)
		rep.gate(m[key] == float64(truths[i].n), "/metrics %s=%v, acked %d", key, m[key], truths[i].n)
	}

	// Fixed-input accuracy streams: the same framing path, a fixed number
	// of batches, so the release error does not move with throughput.
	for _, snd := range z.senders {
		snd.Close() //nolint:errcheck // the main phase is over
	}
	var rel, est streamSet
	for i, n := range names {
		est.add(n, truths[i])
		acc := n + "-acc"
		if err := z.srv.client.CreateStream(e.ctx, acc, streamSpec(sz.zK, sz.zUniverse, 0)); err != nil {
			return nil, err
		}
		snd := scenario.NewSender(z.srv.client, scenario.Target{BaseURL: "http://" + z.srv.httpAddr, IngestAddr: z.ingest}, acc, scenario.TransportTCP)
		z.senders = append(z.senders, snd)
		for j := 0; j < sz.zAcc; j++ {
			if err := snd.Send(e.ctx, pools[i][j%len(pools[i])]); err != nil {
				return nil, fmt.Errorf("accuracy stream: %w", err)
			}
		}
		snd.Close() //nolint:errcheck // done with this stream
		rep.attempted += int64(sz.zAcc)
		t := newTruth(sz.zUniverse)
		t.addBatches(pools[i], sz.zAcc)
		st, err := z.srv.client.Stats(e.ctx, acc)
		if err != nil {
			return nil, err
		}
		rep.gate(st.Items == t.n, "stream %s: items_ingested=%d, acked %d", acc, st.Items, t.n)
		rel.add(acc, t)
	}
	readDur := time.Duration(0.15 * e.seconds * float64(time.Second))
	rd, err := quiescedReads(e, rep, z.srv, sz.zK, rel, est, sz.zReleases, sz.zEstimates, readDur, readDur, nil, true)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(z.srv.pid())
	if err != nil {
		return nil, err
	}
	rep.metrics["server_peak_rss_mb"] = rss
	rep.row["gen.late_p99_ms"] = summarize("late", late).tail
	rep.row["server.cpu_util"] = utilS
	rep.row["bench.cpu_util"] = utilB
	rep.row["http.conn_reuse_ratio"] = rd.hs.ratio()
	rep.attempted += rd.ops
	rep.row["ops_failed_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))

	if e.tr == nil {
		return rep, nil
	}
	// Traced run, part 2: replay the acked batches in-process.
	r, err := newReplay(e.tr, sz.zK, sz.zUniverse, 0, append(append([]string(nil), names...), rel.names...))
	if err != nil {
		return nil, err
	}
	frameBytes := make([][][]byte, len(names))
	for i := range names {
		for j, b := range pools[i] {
			frameBytes[i] = append(frameBytes[i], encodeFrame(uint32(j+2), b))
		}
	}
	replayEnd := time.Now().Add(time.Duration(0.25 * e.seconds * float64(time.Second)))
	var replayed int64
	for j := 0; time.Now().Before(replayEnd); j++ {
		done := true
		for i, n := range names {
			if j >= z.next[i] {
				continue
			}
			done = false
			if err := r.ingest(n, frameBytes[i][j%len(pools[i])], true, 0); err != nil {
				return nil, err
			}
			replayed += int64(len(pools[i][j%len(pools[i])]))
		}
		if done {
			break
		}
	}
	for i, acc := range rel.names {
		for j := 0; j < sz.zAcc; j++ {
			if err := r.ingest(acc, frameBytes[i][j%len(pools[i])], true, 0); err != nil {
				return nil, err
			}
			replayed += int64(len(pools[i][j%len(pools[i])]))
		}
	}
	if err := replayReads(r, rel, est, sz.zReleases, sz.zEstimates, e.seed); err != nil {
		return nil, err
	}
	agg := aggregate(e.tr.all(), e.tr.emptyNS)
	layerMetrics(rep, agg, replayed, e.tr)
	rep.metrics["mg.decrements_per_kitem"] = r.decrementsPerKitem()
	rep.metrics["framing.frames"] = m["dpmg_ingest_frames_total"]
	rep.metrics["trace.e2e_us_per_op"] = meanSpanUS(agg, "req.framing")
	rep.metrics["trace.overhead_ratio"] = ov.ratio()
	residual(rep, "framing.residual_us_per_frame", meanSpanUS(agg, "req.framing"), layerSumUS(agg, "op.ingest"))
	residual(rep, "http.residual_us_per_request", meanSpanUS(agg, "req.release"), layerSumUS(agg, "op.release"))
	return rep, nil
}
