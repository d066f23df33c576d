package dpmg

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// TestShardedEstimateProperties checks the two guarantees the sharded
// ingest path inherits from Misra-Gries, on randomized configurations:
// non-private estimates never exceed true counts (sketches only ever
// undercount), and undercount at most N/(k+1) — items live in exactly one
// shard, so the per-shard bound n_shard/(k+1) is itself at most N/(k+1).
func TestShardedEstimateProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	for trial := 0; trial < 12; trial++ {
		shards := 1 + rng.IntN(8)
		k := 16 << rng.IntN(3)
		d := 1 << (8 + rng.IntN(5))
		n := 20000 + rng.IntN(60000)
		var str stream.Stream
		if trial%2 == 0 {
			str = workload.Zipf(n, d, 1.0+rng.Float64(), uint64(trial+1))
		} else {
			str = workload.HeavyTail(n, d, 1+rng.IntN(6), 0.5+rng.Float64()/2, uint64(trial+1))
		}
		sk := NewShardedSketch(shards, k, uint64(d))
		sk.UpdateBatch(str)
		// Fold and publish so the property sweep exercises the published
		// read path; with writers quiesced the view is exact.
		if err := sk.Publish(); err != nil {
			t.Fatal(err)
		}
		f := hist.Exact(str)
		slack := int64(n) / int64(k+1)
		for x := Item(1); int(x) <= d; x++ {
			est := sk.Estimate(x)
			if est > f[x] {
				t.Fatalf("trial %d (shards=%d k=%d): item %d overestimated: %d > true %d",
					trial, shards, k, x, est, f[x])
			}
			if est < f[x]-slack {
				t.Fatalf("trial %d (shards=%d k=%d): item %d below bound: est %d true %d slack %d",
					trial, shards, k, x, est, f[x], slack)
			}
		}
	}
}

// TestMergedSummaryProperties checks the same two properties after the
// Agarwal et al. merge: a summary merged from disjoint shard sketches
// still never overestimates and keeps the N/(k+1) error bound over the
// whole stream (Section 7).
func TestMergedSummaryProperties(t *testing.T) {
	const (
		k = 64
		d = 1 << 12
		n = 80000
	)
	str := workload.Zipf(n, d, 1.1, 77)
	sk := NewShardedSketch(4, k, d)
	sk.UpdateBatch(str)
	sum, err := sk.Summary()
	if err != nil {
		t.Fatal(err)
	}
	f := hist.Exact(str)
	slack := int64(n) / int64(k+1)
	for x := Item(1); int(x) <= d; x++ {
		est := sum.inner.Estimate(x)
		if est > f[x] {
			t.Fatalf("merged summary overestimates item %d: %d > %d", x, est, f[x])
		}
		if est < f[x]-slack {
			t.Fatalf("merged summary below bound at item %d: est %d true %d slack %d",
				x, est, f[x], slack)
		}
	}
}

// TestShardedBatchMatchesSequential pins ShardedSketch.UpdateBatch to
// Update semantics: per-shard grouping must preserve each shard's stream
// order, so both ingest paths produce identical shard states.
func TestShardedBatchMatchesSequential(t *testing.T) {
	str := workload.HeavyTail(50000, 2000, 4, 0.7, 11)
	a := NewShardedSketch(5, 32, 2000)
	b := NewShardedSketch(5, 32, 2000)
	for _, x := range str {
		a.Update(x)
	}
	for i := 0; i < len(str); i += 997 { // ragged batches
		end := i + 997
		if end > len(str) {
			end = len(str)
		}
		b.UpdateBatch(str[i:end])
	}
	if a.N() != b.N() {
		t.Fatalf("N diverges: %d vs %d", a.N(), b.N())
	}
	for i := range a.shards {
		ca, cb := a.shards[i].sk.Counters(), b.shards[i].sk.Counters()
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("shard %d diverges:\nseq   %v\nbatch %v", i, ca, cb)
		}
	}
}

// TestSketchBatchMatchesSequential does the same for the single-threaded
// public Sketch, through the dpmg API surface.
func TestSketchBatchMatchesSequential(t *testing.T) {
	str := workload.Zipf(30000, 1<<11, 1.05, 21)
	a := NewSketch(64, 1<<11)
	b := NewSketch(64, 1<<11)
	for _, x := range str {
		a.Update(x)
	}
	b.UpdateBatch(str)
	ha, err := Release(a, Params{Eps: 1, Delta: 1e-6}, WithMechanism(MechanismLaplace), WithSeed(4242))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Release(b, Params{Eps: 1, Delta: 1e-6}, WithMechanism(MechanismLaplace), WithSeed(4242))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ha, hb) {
		t.Fatalf("seeded releases diverge between ingest paths:\nseq   %v\nbatch %v", ha, hb)
	}
}

// TestAddUsersMatchesAddUser pins the user-level batch path: AddUsers must
// leave the sketch in the same state as per-user AddUser calls, and must
// reject a batch containing any invalid set without applying a prefix.
func TestAddUsersMatchesAddUser(t *testing.T) {
	sets := workload.UserSets(2000, 500, 6, 1.1, 31)
	a := NewUserSketch(64, 6)
	b := NewUserSketch(64, 6)
	for _, set := range sets {
		if err := a.AddUser(set); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddUsers(sets); err != nil {
		t.Fatal(err)
	}
	for x := Item(1); x <= 500; x++ {
		if a.Estimate(x) != b.Estimate(x) {
			t.Fatalf("item %d: AddUser %d AddUsers %d", x, a.Estimate(x), b.Estimate(x))
		}
	}
	// Invalid batches must be rejected atomically — neither the preceding
	// valid sets nor a prefix of the bad set may be applied. Item 0 is the
	// nasty case: it used to slip past validation and panic mid-ingest.
	for _, bad := range [][][]Item{
		{{1, 2}, {3, 3}}, // duplicate in second set
		{{1, 2}, {5, 0}}, // reserved item 0 in second set
		{{1, 2}, {}},     // empty second set
	} {
		before := b.Estimate(1)
		if err := b.AddUsers(bad); err == nil {
			t.Fatalf("invalid batch %v accepted", bad)
		}
		if b.Estimate(1) != before {
			t.Fatalf("rejected batch %v partially applied", bad)
		}
	}
}
