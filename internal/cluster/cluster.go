// Package cluster is the distributed aggregation tier: the edge→root
// summary fan-in topology that turns the paper's Corollary 18 merge bound
// into a running multi-node system.
//
// # Topology
//
// Edges run the full local stack — sharded raw ingest, QoS, lifecycle —
// and periodically *cut* each stream (Stream.CutSummary): atomically
// extract the combined summary and reset the tiers, so successive cuts
// cover disjoint traffic segments. Each cut is persisted to a durable
// spool (the edge's write-ahead log) inside the cut's critical section and
// then shipped upstream as one framing.TypeSummary frame. The root folds
// incoming summaries into its per-stream node tier with the same
// Agarwal et al. merge a single process would use, and solely owns the
// release budget/accountant. Because the merged sensitivity of
// Corollary 18 is independent of how many summaries were merged, the
// fan-in adds no privacy cost and no noise beyond the single-process
// deployment: a root release is calibrated exactly as if one process had
// ingested everything.
//
// # Exactly-once folding
//
// Each edge stamps every cut of a stream with a strictly increasing ship
// sequence number; the root remembers, per (edge, stream), the highest
// sequence it has folded and refuses lower-or-equal ones with the
// success-class AckDuplicate. Shippers ship each stream's records in
// sequence order and stop that stream's pipeline on a retryable refusal,
// so the set of folded sequences per (edge, stream) is always a prefix —
// which makes the single high-water mark an exact dedup, not a heuristic.
// A restarted edge re-syncs its sequence baseline with a TypeSeqQuery
// before its first cut (so it never reuses a sequence the root already
// folded) and re-ships whatever its spool still holds; duplicates are
// absorbed, gaps cannot occur, and no summary is folded twice.
//
// The root runs every dedup check and the fold it guards under one fold
// mutex (Root), so folds land in one total order. Release bytes depend
// only on each stream's own fold sequence, since streams are independent
// sketches and a release reads exactly one of them: replaying the root's
// folds serially reproduces its release bytes exactly.
//
// # Failover
//
// The durable truth is split by role: the spool holds an edge's cut-but-
// unshipped traffic; the root's manager snapshot plus its sequence table
// hold everything folded. An edge crash loses at most the raw traffic
// ingested since its last cut (one ship interval); a root restart is
// bridged by the edges' Redialer backoff loops, which re-connect and
// resume shipping where the sequence table says they left off.
package cluster
