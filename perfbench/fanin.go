package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpmg"
	"dpmg/internal/cluster"
	"dpmg/internal/framing"
	"dpmg/internal/merge"
	"dpmg/internal/stream"
)

// edgeNode is one in-process edge: the manager, spool and shipper that
// dpmg-server -role=edge wires up, driven by the benchmark instead of a
// -ship-interval timer.
type edgeNode struct {
	mgr     *dpmg.Manager
	spool   *cluster.Spool
	shipper *cluster.Shipper
}

// faninRig is one edge-root-fanin deployment: a dpmg-server -role=root
// process and the in-process edges, one upstream connection each.
type faninRig struct {
	root        *server
	clusterAddr string
	edges       []*edgeNode
	rounds      []int // rounds per edge, warm-up included
}

func (f *faninRig) close() {
	for _, ed := range f.edges {
		ed.shipper.Close()
	}
	f.root.stop()
}

// newEdge builds an edge holding the named streams.
func newEdge(id, spoolDir, upstream string, k, universe int, names []string) (*edgeNode, error) {
	m, err := dpmg.NewManager(dpmg.StreamConfig{K: k, Universe: uint64(universe), Budget: dpmg.Budget{Eps: 1}})
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, _, err := m.CreateStream(n, dpmg.StreamConfig{}); err != nil {
			return nil, err
		}
	}
	sp, err := cluster.OpenSpool(spoolDir)
	if err != nil {
		return nil, err
	}
	sh, err := cluster.NewShipper(cluster.ShipperConfig{Manager: m, EdgeID: id, Upstream: upstream,
		Spool: sp, Interval: time.Hour, Logf: logf})
	if err != nil {
		return nil, err
	}
	return &edgeNode{mgr: m, spool: sp, shipper: sh}, nil
}

// ingest puts batch r of each named stream's pool into the edge.
func (ed *edgeNode) ingest(names []string, pools [][][]stream.Item, r int) error {
	for s, n := range names {
		st, ok := ed.mgr.Stream(n)
		if !ok {
			return fmt.Errorf("edge: unknown stream %q", n)
		}
		if err := st.UpdateBatch(pools[s][r%len(pools[s])]); err != nil {
			return err
		}
	}
	return nil
}

// runFanin is edge-root-fanin: two in-process edges of 16 streams each
// (k=1024, universe 2^16) ship cut summaries to a dpmg-server -role=root.
// Each closed-loop round puts a 4096-item Zipf(1.05) batch into every
// stream and calls Shipper.ShipCycle: cut, spool save with fsync, ship,
// root decode and fold, ack, spool delete. Afterwards the root is checked
// and released against the exact totals.
func runFanin(e *env) (*report, error) {
	sz, rep := e.sz, newReport()
	names := make([]string, sz.fStreams)
	for s := range names {
		names[s] = fmt.Sprintf("f%02d", s)
	}
	accNames := []string{"acc0", "acc1"}
	pools := make([][][][]stream.Item, sz.fEdges) // edge → stream → batches
	for ed := range pools {
		for s := range names {
			pools[ed] = append(pools[ed], zipfPool(sz.fUniverse, sz.fSkew, streamSeed(e.seed, fmt.Sprintf("fanin%d", ed), s), sz.fPool, sz.fBatch))
		}
	}
	launches := 0
	setup := func() (*faninRig, error) {
		launches++
		caddr, err := freePort()
		if err != nil {
			return nil, err
		}
		root, err := launchServer(e.ctx, e.bin, filepath.Join(e.dir, fmt.Sprintf("root-%d.log", launches)), []string{
			"-role", "root", "-cluster-addr", caddr, "-k", strconv.Itoa(sz.fK), "-d", strconv.Itoa(sz.fUniverse),
			"-eps", fmt.Sprint(budgetEps), "-delta", fmt.Sprint(budgetDelta)})
		if err != nil {
			return nil, err
		}
		f := &faninRig{root: root, clusterAddr: caddr, rounds: make([]int, sz.fEdges)}
		for i := 0; i < sz.fEdges; i++ {
			ed, err := newEdge(fmt.Sprintf("edge-%d", i), filepath.Join(e.dir, fmt.Sprintf("spool-%d-%d", launches, i)),
				caddr, sz.fK, sz.fUniverse, names)
			if err != nil {
				f.close()
				return nil, err
			}
			f.edges = append(f.edges, ed)
		}
		// Connect: one ship cycle per edge while its streams are still
		// empty dials the root and syncs every stream's sequence baseline
		// with it, all acked, but cuts nothing and writes no spool file.
		for i, ed := range f.edges {
			if err := ed.shipper.ShipCycle(e.ctx); err != nil {
				f.close()
				return nil, fmt.Errorf("connect edge %d: %w", i, err)
			}
		}
		return f, nil
	}
	setupS, f, err := setupTimes(sz.setupReps, setup, (*faninRig).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep.metrics["setup_s"] = setupS

	// Warm-up, outside setup_s: one round per edge, shipped and acked. Its
	// spool fsyncs take as long as the shared disk makes them, which would
	// swamp the set-up time.
	errs := make([]error, len(f.edges))
	var wg sync.WaitGroup
	for i, ed := range f.edges {
		wg.Add(1)
		go func(i int, ed *edgeNode) {
			defer wg.Done()
			if errs[i] = ed.ingest(names, pools[i], 0); errs[i] == nil {
				errs[i] = ed.shipper.ShipCycle(e.ctx)
			}
		}(i, ed)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil && f.edges[i].shipper.Stats().Shipped != int64(len(names)) {
			err = fmt.Errorf("warm-up shipped %d of %d summaries", f.edges[i].shipper.Stats().Shipped, len(names))
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up edge %d: %w", i, err)
		}
		f.rounds[i] = 1
	}

	cpuS, err := startCPU(f.root.pid())
	if err != nil {
		return nil, err
	}
	cpuB, err := startCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	shipped0 := make([]int64, len(f.edges))
	for i, ed := range f.edges {
		shipped0[i] = ed.shipper.Stats().Shipped
	}
	ov := newOverhead()
	var folded atomic.Int64
	samp := startSampler(f.root.pid(), &folded)
	cycles := make([][]time.Duration, len(f.edges))
	start := time.Now()
	deadline := start.Add(time.Duration(0.7 * e.seconds * float64(time.Second)))
	for i, ed := range f.edges {
		wg.Add(1)
		go func(i int, ed *edgeNode) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				tr := ov.tracerFor(e.tr)
				req := tr.nextReq()
				sp := tr.begin("req.edge_ingest", req, -1)
				err := ed.ingest(names, pools[i], f.rounds[i])
				tr.end(sp)
				if err != nil {
					errs[i] = err
					return
				}
				ts := time.Now()
				sp = tr.begin("req.ship_cycle", req, -1)
				err = ed.shipper.ShipCycle(e.ctx)
				tr.end(sp)
				d := time.Since(ts)
				ov.note(tr != nil, d)
				if err != nil {
					errs[i] = err
					return
				}
				cycles[i] = append(cycles[i], d)
				folded.Add(int64(len(names)))
				f.rounds[i]++
			}
		}(i, ed)
	}
	wg.Wait()
	end := time.Now()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	var allCycles []time.Duration
	for i, ed := range f.edges {
		shipped := ed.shipper.Stats().Shipped - shipped0[i]
		rep.gate(shipped == int64(len(cycles[i])*len(names)), "edge %d: root acked %d of %d summaries cut", i, shipped, len(cycles[i])*len(names))
		allCycles = append(allCycles, cycles[i]...)
		rep.attempted += int64(len(cycles[i]))
	}
	rep.metrics["e2e.closed_loop_per_s"] = float64(folded.Load()) / end.Sub(start).Seconds()
	if err := rep.setCPU(samp); err != nil {
		return nil, err
	}
	rep.setTiming("write_ack", allCycles)
	utilS, err := cpuS.util()
	if err != nil {
		return nil, err
	}
	utilB, err := cpuB.util()
	if err != nil {
		return nil, err
	}

	// Fixed-input accuracy streams through the same edge → root path, so
	// the release error does not move with throughput.
	accRounds := max(1, sz.fPool/3)
	for i, ed := range f.edges {
		for _, n := range accNames {
			if _, _, err := ed.mgr.CreateStream(n, dpmg.StreamConfig{}); err != nil {
				return nil, err
			}
		}
		for r := 0; r < accRounds; r++ {
			if err := ed.ingest(accNames, pools[i], r); err != nil {
				return nil, err
			}
			if err := ed.shipper.ShipCycle(e.ctx); err != nil {
				return nil, fmt.Errorf("accuracy round: %w", err)
			}
			rep.attempted++
		}
	}

	// Quiesced: every cut reached the root exactly once.
	m, err := scrape(e.ctx, f.root.httpAddr)
	if err != nil {
		return nil, err
	}
	var totalShipped, failures int64
	for i, ed := range f.edges {
		st := ed.shipper.Stats()
		totalShipped += st.Shipped
		failures += st.Failures
		rep.gate(st.Failures == 0, "edge %d: %d ship failures", i, st.Failures)
		rep.gate(st.Shipped == st.Cuts, "edge %d: %d cuts, %d acked by the root", i, st.Cuts, st.Shipped)
		recs, err := ed.spool.List()
		if err != nil {
			return nil, err
		}
		rep.gate(st.SpoolPending == 0 && len(recs) == 0, "edge %d: spool holds %d records", i, len(recs))
	}
	rep.failed += failures
	rep.gate(m["dpmg_cluster_deduped_total"] == 0, "root deduped %v summaries", m["dpmg_cluster_deduped_total"])
	rep.gate(m["dpmg_cluster_folded_total"] == float64(totalShipped), "root folded %v summaries, edges shipped %d", m["dpmg_cluster_folded_total"], totalShipped)
	var rel, est streamSet
	for _, grp := range []struct {
		names  []string
		rounds func(i int) int
		set    *streamSet
	}{
		{names, func(i int) int { return f.rounds[i] }, &est},
		{accNames, func(int) int { return accRounds }, &rel},
	} {
		for s, n := range grp.names {
			total := newTruth(sz.fUniverse)
			cuts := 0
			for i, ed := range f.edges {
				t := newTruth(sz.fUniverse)
				t.addBatches(pools[i][s], grp.rounds(i))
				st, _ := ed.mgr.Stream(n)
				rep.gate(st.Ingested() == t.n, "edge %d stream %s: ingested %d, generated %d", i, n, st.Ingested(), t.n)
				total.add(t)
				cuts += grp.rounds(i)
			}
			doc, err := f.root.client.Stats(e.ctx, n)
			if err != nil {
				return nil, err
			}
			rep.gate(doc.Nodes == cuts, "root stream %s: %d summaries merged, edges cut %d", n, doc.Nodes, cuts)
			grp.set.add(n, total)
		}
	}
	// The edges are done: their upstream connections close, so the reads
	// below are the run's only connection.
	for _, ed := range f.edges {
		ed.shipper.Close()
	}
	readDur := time.Duration(0.15 * e.seconds * float64(time.Second))
	rd, err := quiescedReads(e, rep, f.root, sz.fK, rel, est, sz.fReleases, sz.fEstimates, readDur, readDur, nil, true)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(f.root.pid())
	if err != nil {
		return nil, err
	}
	rep.metrics["server_peak_rss_mb"] = rss
	rep.attempted += rd.ops
	rep.row["gen.late_p99_ms"] = 0 // closed loop only: no schedule to run late on
	rep.row["server.cpu_util"] = utilS
	rep.row["bench.cpu_util"] = utilB
	rep.row["http.conn_reuse_ratio"] = rd.hs.ratio()
	rep.row["ops_failed_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.row["cluster.fold_ok_ratio"] = float64(totalShipped) / float64(max(totalShipped+failures, 1))

	if e.tr == nil {
		return rep, nil
	}
	if err := replayFanin(e, rep, f, names, accNames, pools, accRounds, rel, est); err != nil {
		return nil, err
	}
	rep.metrics["trace.overhead_ratio"] = ov.ratio()
	return rep, nil
}

// replayFanin is the traced run's second part for edge-root-fanin: the
// same rounds replayed single-threaded through the edge-side calls
// ShipCycle makes (route and apply, cut with its spool save, payload
// encode, the exchange with the real root, spool delete), then each
// shipped payload through the root-side decode and fold on an in-process
// root manager, which also serves the replayed reads.
func replayFanin(e *env, rep *report, f *faninRig, names, accNames []string, pools [][][][]stream.Item, accRounds int, rel, est streamSet) error {
	sz, t := e.sz, e.tr
	all := append(append([]string(nil), names...), accNames...)
	edge, err := dpmg.NewManager(dpmg.StreamConfig{K: sz.fK, Universe: uint64(sz.fUniverse), Budget: dpmg.Budget{Eps: 1}})
	if err != nil {
		return err
	}
	for _, n := range all {
		if _, _, err := edge.CreateStream(n, dpmg.StreamConfig{}); err != nil {
			return err
		}
	}
	r, err := newReplay(t, sz.fK, sz.fUniverse, 0, all)
	if err != nil {
		return err
	}
	spoolDir, err := subdir(e.dir, "replay-spool")
	if err != nil {
		return err
	}
	spool, err := cluster.OpenSpool(spoolDir)
	if err != nil {
		return err
	}
	fc, err := framing.DialTimeout(f.clusterAddr, 10*time.Second)
	if err != nil {
		return err
	}
	conn, err := cluster.NewConn(fc, "replay-edge")
	if err != nil {
		return err
	}
	defer conn.Close()
	dec := cluster.NewSummaryDecoder()
	seq := make(map[string]uint64)
	var payload []byte
	var shipped [][]byte
	var items int64

	round := func(grp []string, pools [][][]stream.Item, rnd int) error {
		req := t.nextReq()
		root := t.begin("op.round", req, -1)
		for s, n := range grp {
			sp := t.begin("dpmg.route", req, root)
			st, _ := edge.Stream(n)
			t.end(sp)
			b := pools[s][rnd%len(pools[s])]
			sp = t.begin("dpmg.update_batch", req, root)
			err := st.UpdateBatch(b)
			t.end(sp)
			if err != nil {
				return err
			}
			items += int64(len(b))
		}
		for _, n := range grp {
			st, _ := edge.Stream(n)
			seq[n]++
			var msum *merge.Summary
			cut := t.begin("cluster.cut", req, root)
			_, err := st.CutSummary(func(out *dpmg.MergeableSummary) error {
				var ferr error
				if msum, ferr = merge.FromSorted(out.K(), out.Keys(), out.Counts()); ferr != nil {
					return ferr
				}
				sv := t.begin("cluster.spool_save", req, cut)
				defer t.end(sv)
				return spool.Save(n, seq[n], msum)
			})
			t.end(cut)
			if err != nil {
				return err
			}
			sp := t.begin("encoding.summary_encode", req, root)
			payload, err = cluster.AppendSummaryPayload(payload[:0], n, seq[n], msum)
			t.end(sp)
			if err != nil {
				return err
			}
			sp = t.begin("cluster.ship_rtt", req, root)
			ack, err := conn.ShipPayload(payload)
			t.end(sp)
			if err != nil {
				return err
			}
			if ack.Code != framing.AckOK {
				return fmt.Errorf("replay ship %s/%d: %s", n, seq[n], ack.Code)
			}
			sp = t.begin("cluster.spool_delete", req, root)
			err = spool.Delete(spool.Record(n, seq[n]))
			t.end(sp)
			if err != nil {
				return err
			}
			shipped = append(shipped, append([]byte(nil), payload...))
		}
		t.end(root)
		// The root-side half of each ship, replayed in-process.
		for _, p := range shipped {
			req := t.nextReq()
			root := t.begin("op.fold", req, -1)
			sp := t.begin("encoding.summary_decode", req, root)
			n, _, sum, err := dec.Decode(p)
			t.end(sp)
			if err != nil {
				return err
			}
			st, _ := r.mgr.Stream(n)
			sp = t.begin("merge.fold", req, root)
			err = st.FoldSummary(sum)
			t.end(sp)
			t.end(root)
			if err != nil {
				return err
			}
		}
		shipped = shipped[:0]
		return nil
	}

	replayEnd := time.Now().Add(time.Duration(0.25 * e.seconds * float64(time.Second)))
	for i := range f.edges {
		for rnd := 0; rnd < f.rounds[i] && time.Now().Before(replayEnd); rnd++ {
			if err := round(names, pools[i], rnd); err != nil {
				return err
			}
		}
		for rnd := 0; rnd < accRounds; rnd++ {
			if err := round(accNames, pools[i], rnd); err != nil {
				return err
			}
		}
	}
	if err := replayReads(r, rel, est, sz.fReleases, sz.fEstimates, e.seed); err != nil {
		return err
	}
	agg := aggregate(t.all(), t.emptyNS)
	layerMetrics(rep, agg, items, t)
	rep.metrics["trace.e2e_us_per_op"] = meanSpanUS(agg, "req.ship_cycle")
	rootSide := layerSumUS(agg, "op.fold")
	residual(rep, "framing.residual_us_per_frame", meanSpanUS(agg, "cluster.ship_rtt"), rootSide)
	residual(rep, "http.residual_us_per_request", meanSpanUS(agg, "req.release"), layerSumUS(agg, "op.release"))
	return nil
}
