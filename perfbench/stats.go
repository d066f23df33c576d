package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// tailQuantile picks the highest percentile, capped at 0.99, that still
// has at least ten samples beyond it under the nearest-rank rule, so a
// reported tail always rests on ten or more observations. Below twenty
// samples it falls back to the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	p := math.Min(0.99, 1-10/float64(n))
	// Nearest rank can round the index up by one; step down until ten
	// samples sit strictly above it.
	for n-int(math.Ceil(p*float64(n))) < 10 {
		p -= 1 / float64(n)
	}
	return p
}

// quantile returns the nearest-rank p-quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// timing summarizes one latency series.
type timing struct {
	name  string
	n     int
	p50   float64 // ms
	tailP float64 // the percentile reported as "p99"
	tail  float64 // ms
}

// summarize turns durations into a timing in milliseconds.
func summarize(name string, ds []time.Duration) timing {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / 1e6
	}
	sort.Float64s(v)
	p := tailQuantile(len(v))
	return timing{name: name, n: len(v), p50: quantile(v, 0.5), tailP: p, tail: quantile(v, p)}
}

// String renders the timing with its sample count and actual percentile.
func (t timing) String() string {
	return fmt.Sprintf("%s: n=%d p50=%.4fms p%.2f=%.4fms", t.name, t.n, t.p50, 100*t.tailP, t.tail)
}

// openLoop records an open-loop schedule: send i is due at start + i·interval
// whether or not earlier sends have finished. Latency is measured from the
// due time, so a stall also charges the sends queued behind it; lateness
// is how far behind schedule the generator started each send.
type openLoop struct {
	start    time.Time
	interval time.Duration
	lat      []time.Duration
	late     []time.Duration
}

// due returns send i's due time.
func (o *openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// record notes send i, started at sent and acknowledged at acked.
func (o *openLoop) record(i int, sent, acked time.Time) {
	d := o.due(i)
	o.lat = append(o.lat, acked.Sub(d))
	o.late = append(o.late, max(0, sent.Sub(d)))
}

// run issues n sends on the schedule, stopping at the first error.
func (o *openLoop) run(ctx context.Context, n int, send func(i int) error) error {
	for i := 0; i < n; i++ {
		if w := time.Until(o.due(i)); w > 0 {
			t := time.NewTimer(w)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		sent := time.Now()
		if err := send(i); err != nil {
			return err
		}
		o.record(i, sent, time.Now())
	}
	return nil
}

// median returns the median of v (which it sorts).
func median(v []float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5)
}
