package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dpmg/internal/scenario"
	"dpmg/internal/stream"
)

// streamSet is a list of server streams with their exact counts.
type streamSet struct {
	names  []string
	truths []*truth
}

func (s *streamSet) add(name string, t *truth) {
	s.names = append(s.names, name)
	s.truths = append(s.truths, t)
}

// reads is what quiescedReads measured.
type reads struct {
	hs  *httpStats
	ops int64
}

// quiescedReads runs after ingest has stopped, when the exact counts are
// known, one request at a time. It makes releases round-robin over rel,
// at least nRel and for at least relDur, then estimate probes round-robin
// over est, at least nEst and for at least estDur, and gates every
// answer: released items against the Lemma 8 envelope plus the
// mechanism's stated error, estimates against the envelope, and the
// /stats ledger of every stream in rel and est against the releases
// admitted (prior holds releases admitted earlier in the run). With timed
// set, the latencies become the release and estimate metrics. The error
// over rel's true top items becomes release_abs_err_mean; rel holds
// streams fed a fixed input, so that error does not grow with throughput.
func quiescedReads(e *env, rep *report, srv *server, k int, rel, est streamSet, nRel, nEst int, relDur, estDur time.Duration, prior map[string]int, timed bool) (*reads, error) {
	out := &reads{hs: &httpStats{}}
	admitted := make(map[string]int)
	for n, c := range prior {
		admitted[n] = c
	}
	tops := make([][]stream.Item, len(rel.names))
	for i, t := range rel.truths {
		tops[i] = t.top(topN)
	}
	// One untimed release fills the server's calibration memo first, as a
	// long-running server has.
	if _, err := srv.client.Release(e.ctx, rel.names[0], relEps, relDelta); err != nil {
		return nil, fmt.Errorf("warm-up release: %w", err)
	}
	admitted[rel.names[0]]++
	rel1, relCPU, err := runReads(srv, nRel, relDur, func(a *readAcc, j int) {
		i := j % len(rel.names)
		name := rel.names[i]
		var doc *scenario.ReleaseDoc
		d, err := out.hs.call(e.ctx, e.tr, "req.release", true, func(ctx context.Context) error {
			var err error
			doc, err = srv.client.Release(ctx, name, relEps, relDelta)
			return err
		})
		if !a.ok(err, "release "+name) {
			return
		}
		admitted[name]++
		a.lat = append(a.lat, d)
		a.errSum += releaseCheck(a.rep, "release "+name, doc, rel.truths[i], k, tops[i])
		a.errN += len(tops[i])
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["e2e.release_cpu_us"] = relCPU
	probes := make([][]stream.Item, len(est.names))
	for i, t := range est.truths {
		probes[i] = t.probeItems(nEst/len(est.names)+1, streamSeed(e.seed, "probe", i))
	}
	est1, estCPU, err := runReads(srv, nEst, estDur, func(a *readAcc, j int) {
		i := j % len(est.names)
		name := est.names[i]
		x := probes[i][(j/len(est.names))%len(probes[i])]
		var v int64
		d, err := out.hs.call(e.ctx, e.tr, "req.estimate", true, func(ctx context.Context) error {
			var err error
			v, err = srv.client.Estimate(ctx, name, x)
			return err
		})
		if !a.ok(err, fmt.Sprintf("estimate %s/%d", name, x)) {
			return
		}
		a.lat = append(a.lat, d)
		checkEstimate(a.rep, "estimate "+name, x, v, est.truths[i], k)
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["e2e.estimate_cpu_us"] = estCPU
	for _, a := range []*readAcc{rel1, est1} {
		rep.failed += a.rep.failed
		rep.gateFails = append(rep.gateFails, a.rep.gateFails...)
		out.ops += a.ops
	}
	seen := make(map[string]bool)
	for _, n := range append(append([]string(nil), rel.names...), est.names...) {
		if seen[n] {
			continue
		}
		seen[n] = true
		st, err := srv.client.Stats(e.ctx, n)
		if err != nil {
			return nil, err
		}
		checkLedger(rep, "stream "+n, st, admitted[n])
	}
	if timed {
		rep.setTiming("release", rel1.lat)
		rep.setTiming("estimate", est1.lat)
	}
	if rel1.errN > 0 {
		rep.metrics["release_abs_err_mean"] = rel1.errSum / float64(rel1.errN)
	}
	return out, nil
}

// readAcc is one read phase's tallies.
type readAcc struct {
	rep    *report // gate failures and failed requests
	lat    []time.Duration
	errSum float64
	errN   int
	ops    int64
}

// ok tallies one request's outcome and reports whether it succeeded.
func (a *readAcc) ok(err error, what string) bool {
	a.ops++
	if err != nil {
		a.rep.failed++
		a.rep.gate(false, "%s: %v", what, err)
		return false
	}
	return true
}

// runReads calls body for request indices 0, 1, ... until at least min
// requests were made and dur has passed, one request at a time, and
// returns the tallies with the server's CPU per request.
func runReads(srv *server, min int, dur time.Duration, body func(a *readAcc, j int)) (*readAcc, float64, error) {
	var done atomic.Int64
	samp := startSampler(srv.pid(), &done)
	a := &readAcc{rep: newReport()}
	for j, t0 := 0, time.Now(); j < min || time.Since(t0) < dur; j++ {
		body(a, j)
		done.Add(1)
	}
	cpu, _, err := samp.finish()
	return a, cpu, err
}

// replayReads replays the quiesced reads in-process: nRel releases over
// rel and nEst estimates over est, taking each set's streams from the
// replay manager under the same names.
func replayReads(r *replay, rel, est streamSet, nRel, nEst int, seed uint64) error {
	for j := 0; j < nRel; j++ {
		st, ok := r.mgr.Stream(rel.names[j%len(rel.names)])
		if !ok {
			continue
		}
		if err := r.release(st); err != nil {
			return err
		}
	}
	probes := make([][]stream.Item, len(est.names))
	for i, t := range est.truths {
		probes[i] = t.probeItems(estimateBatch, streamSeed(seed, "probe", i))
	}
	for j := 0; j < (nEst+estimateBatch-1)/estimateBatch; j++ {
		i := j % len(est.names)
		if st, ok := r.mgr.Stream(est.names[i]); ok {
			r.estimates(st, probes[i], 0)
		}
	}
	return nil
}
