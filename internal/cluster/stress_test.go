package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpmg/internal/framing"
	"dpmg/internal/merge"
	"dpmg/internal/stream"
)

// TestRootParallelFoldStress drives the root with a hostile parallel fleet
// — 4 edges × 3 streams over real connections, in-order ships interleaved
// with exact-duplicate and below-high-water re-ships — while a concurrent
// snapshot loop exercises the fold-mutex quiesce. The outcome is pinned
// three ways: exact fold and dedup counts, per-(edge, stream) high-water
// marks (seq queries and the persisted table), and byte-identical releases
// against a single-process twin that replays the root's fold order
// serially. The snapshot callback additionally asserts the quiesce: no fold
// may land while the save runs, because folds bump the counter under the
// fold mutex and the save holds it.
// CI runs this under -race -count=3 in the cluster failover stress step.
func TestRootParallelFoldStress(t *testing.T) {
	const (
		edges   = 4
		streams = 3
		ships   = 40
	)
	var log foldLog
	rootMgr := testManager(t)
	root, addr, stop := startRoot(t, rootMgr, &log)
	defer stop()

	// Snapshot loop: runs SnapshotSeqs concurrently with the fleet until
	// the fleet finishes, checking the quiesce and the table's shape.
	stopSnap := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stopSnap:
				return
			case <-time.After(time.Millisecond):
			}
			err := root.SnapshotSeqs(func(table []byte) error {
				before := root.Stats().Folded
				time.Sleep(2 * time.Millisecond)
				if after := root.Stats().Folded; after != before {
					return fmt.Errorf("fold landed during snapshot save: %d -> %d", before, after)
				}
				var tab seqTable
				if err := json.Unmarshal(table, &tab); err != nil {
					return fmt.Errorf("snapshot table: %v", err)
				}
				for edge, byStream := range tab.Seqs {
					for name, seq := range byStream {
						if seq == 0 || seq > ships {
							return fmt.Errorf("snapshot table %s/%s: seq %d outside [1, %d]", edge, name, seq, ships)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for e := 0; e < edges; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c, err := framing.DialTimeout(addr, 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			conn, err := NewConn(c, fmt.Sprintf("edge-%d", e))
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			ship := func(name string, seq uint64, sum *merge.Summary, want framing.AckCode) bool {
				ack, err := conn.ShipSummary(name, seq, sum)
				if err != nil {
					t.Errorf("edge-%d ship %s/%d: %v", e, name, seq, err)
					return false
				}
				if ack.Code != want {
					t.Errorf("edge-%d ship %s/%d: ack %s (%s), want %s", e, name, seq, ack.Code, ack.Msg, want)
					return false
				}
				return true
			}
			for i := 1; i <= ships; i++ {
				for s := 0; s < streams; s++ {
					name := fmt.Sprintf("st-%d", s)
					key := stream.Item((i*31+s*7+e*3)%997 + 1)
					sum, err := merge.FromSorted(64, []stream.Item{key}, []int64{int64(i%9 + 1)})
					if err != nil {
						t.Error(err)
						return
					}
					if !ship(name, uint64(i), sum, framing.AckOK) {
						return
					}
					// Exact duplicate re-ship (a retry whose ack was lost).
					if i%5 == 0 && !ship(name, uint64(i), sum, framing.AckDuplicate) {
						return
					}
					// Below-high-water re-ship (a restarted edge replaying
					// an old spool record).
					if i%7 == 0 && i > 1 && !ship(name, uint64(i-1), sum, framing.AckDuplicate) {
						return
					}
				}
			}
			// The per-(edge, stream) high-water marks all sit at the last
			// in-order ship.
			for s := 0; s < streams; s++ {
				name := fmt.Sprintf("st-%d", s)
				if last, err := conn.LastSeq(name); err != nil || last != ships {
					t.Errorf("edge-%d LastSeq(%s) = (%d, %v), want %d", e, name, last, err, ships)
				}
			}
		}(e)
	}
	wg.Wait()
	close(stopSnap)
	snapWG.Wait()
	if t.Failed() {
		return
	}

	// Exact global accounting: every in-order ship folded exactly once,
	// every re-ship refused. Per (edge, stream): ships folds, ships/5
	// exact duplicates, and one below-high-water replay per i in (1, ships]
	// divisible by 7.
	dupsPerPair := ships / 5
	for i := 2; i <= ships; i++ {
		if i%7 == 0 {
			dupsPerPair++
		}
	}
	wantFolded := int64(edges * streams * ships)
	wantDeduped := int64(edges * streams * dupsPerPair)
	if got := root.Stats(); got.Folded != wantFolded || got.Deduped != wantDeduped {
		t.Fatalf("root folded %d / deduped %d, want %d / %d", got.Folded, got.Deduped, wantFolded, wantDeduped)
	}

	// The persisted table carries every (edge, stream) high-water mark.
	err := root.SnapshotSeqs(func(table []byte) error {
		var tab seqTable
		if err := json.Unmarshal(table, &tab); err != nil {
			return err
		}
		for e := 0; e < edges; e++ {
			byStream := tab.Seqs[fmt.Sprintf("edge-%d", e)]
			for s := 0; s < streams; s++ {
				if got := byStream[fmt.Sprintf("st-%d", s)]; got != ships {
					return fmt.Errorf("table edge-%d/st-%d = %d, want %d", e, s, got, ships)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The differential pin: each stream's release at the root must be
	// byte-identical (same seed) to a serial single-process replay of the
	// root's fold order.
	twin := log.twin(t)
	for s := 0; s < streams; s++ {
		assertSameRelease(t, rootMgr, twin, fmt.Sprintf("st-%d", s), 42)
	}
}

// TestFoldSteadyStateAllocs pins the zero-alloc fold path: after warm-up, a
// fold costs at most the two allocations of the published aggregate
// (CloneCompact's combined column block and its summary header). The
// decoder scratch, the wrapped summary, the dedup lookup, the merge, and the
// per-edge counters all reuse connection- and stream-owned storage.
func TestFoldSteadyStateAllocs(t *testing.T) {
	rootMgr := testManager(t)
	root, err := NewRoot(RootConfig{Manager: rootMgr, AutoCreate: true})
	if err != nil {
		t.Fatal(err)
	}
	est := &edgeState{}
	dec := NewSummaryDecoder()
	keys := make([]stream.Item, 64)
	counts := make([]int64, 64)
	for i := range keys {
		keys[i] = stream.Item(i + 1)
		counts[i] = int64(i%9 + 1)
	}
	sum, err := merge.FromSorted(64, keys, counts)
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	var seq uint64
	foldOnce := func() {
		seq++
		var err error
		payload, err = AppendSummaryPayload(payload[:0], "s", seq, sum)
		if err != nil {
			t.Fatal(err)
		}
		if ack := root.fold("edge-1", est, dec, payload, 0); ack.Code != framing.AckOK {
			t.Fatalf("fold %d: ack %s: %s", seq, ack.Code, ack.Msg)
		}
	}
	// Warm-up: stream auto-create, decoder scratch growth, merger scratch,
	// and the edge's dedup row all allocate once, up front.
	for i := 0; i < 8; i++ {
		foldOnce()
	}
	if avg := testing.AllocsPerRun(200, foldOnce); avg > 2 {
		t.Fatalf("steady-state fold allocates %.1f per op, want <= 2 (the published aggregate)", avg)
	}
}
