package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpmg"
	"dpmg/internal/framing"
)

// FoldHook observes every successful fold, called with the root's fold
// mutex held: hooks see one total fold order, exactly the order folds
// landed in, and never run concurrently. It exists for differential
// testing — replaying the hook sequence into a single-process manager must
// reproduce the root's state. The summary is the connection's reusable
// decode scratch: a hook that retains anything must copy it before
// returning, and it must not call back into the root.
type FoldHook func(edge, stream string, seq uint64, sum *dpmg.MergeableSummary)

// RootConfig configures a Root.
type RootConfig struct {
	// Manager is the root's stream layer: folds land in its per-stream
	// node tiers, and it solely owns every release budget.
	Manager *dpmg.Manager
	// AutoCreate makes the root create a stream (manager defaults, k taken
	// from the incoming summary) when an edge ships to an unknown name.
	// Without it, unknown streams refuse with AckUnknownStream until the
	// operator creates them.
	AutoCreate bool
	// Logf, when set, observes per-connection errors (log.Printf-shaped).
	Logf func(format string, args ...any)
	// FoldHook, when set, observes every successful fold (tests).
	FoldHook FoldHook
}

// Root is the fan-in server: it accepts edge connections on the
// aggregation-tier protocol (hello, summary, seq-query) and folds shipped
// summaries into its manager's per-stream node tiers.
//
// Summary decode runs on the connection's goroutine, outside any lock; the
// per-(edge, stream) high-water check, the manager fold and the high-water
// advance run under one fold mutex, so folds land in one total order.
type Root struct {
	cfg RootConfig

	// mu is the fold mutex. It guards seqs, makes each dedup check atomic
	// with the fold it admits, and lets SnapshotSeqs quiesce every fold so
	// the table and whatever is persisted beside it describe the same fold
	// set.
	mu sync.Mutex
	// seqs is the dedup table, edge → stream → last folded seq: the
	// persisted JSON shape, so SnapshotSeqs and LoadSeqs encode and decode
	// it directly. Inner maps may be nil after a load.
	seqs map[string]map[string]uint64

	// edgeMu guards the edges map only. Per-edge counters are atomics and
	// a connection resolves its *edgeState once, at hello, so the fold
	// path never touches this mutex and Stats never blocks a fold.
	edgeMu sync.Mutex
	edges  map[string]*edgeState

	folded   atomic.Int64
	deduped  atomic.Int64
	draining atomic.Bool

	lnMu  sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// edgeState is one edge's fan-in bookkeeping, all atomics: the fold path
// updates it without locks and Stats/metrics read it without blocking any
// fold.
type edgeState struct {
	connected atomic.Int64
	folded    atomic.Int64
	deduped   atomic.Int64
	lastFold  atomic.Int64 // unix nanoseconds of the latest fold; 0 = never
}

// NewRoot returns a Root folding into cfg.Manager.
func NewRoot(cfg RootConfig) (*Root, error) {
	if cfg.Manager == nil {
		return nil, fmt.Errorf("cluster: root requires a manager")
	}
	return &Root{
		cfg:   cfg,
		seqs:  make(map[string]map[string]uint64),
		edges: make(map[string]*edgeState),
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// logf logs through the configured sink, if any.
func (r *Root) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Serve accepts edge connections on ln until Shutdown closes it. Each
// connection is handled on its own goroutine.
func (r *Root) Serve(ln net.Listener) error {
	r.lnMu.Lock()
	r.ln = ln
	r.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if r.draining.Load() {
				return nil
			}
			return err
		}
		r.lnMu.Lock()
		if r.draining.Load() {
			// Shutdown won the race between Accept and registration; it will
			// never see this connection, so refuse it here.
			r.lnMu.Unlock()
			conn.Close()
			return nil
		}
		r.conns[conn] = struct{}{}
		r.lnMu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer func() {
				r.lnMu.Lock()
				delete(r.conns, conn)
				r.lnMu.Unlock()
			}()
			r.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting, marks the root draining, force-closes live
// edge connections, and waits for connection goroutines to finish. Closing
// mid-exchange is safe: the protocol is synchronous request/ack, so an
// interrupted ack is a transport error to the edge, which keeps its spool
// record and re-ships it later — the dedup table absorbs the replay.
func (r *Root) Shutdown() {
	r.draining.Store(true)
	r.lnMu.Lock()
	if r.ln != nil {
		r.ln.Close()
	}
	for conn := range r.conns {
		conn.Close()
	}
	r.lnMu.Unlock()
	r.wg.Wait()
}

// handleConn speaks the aggregation-tier protocol on one edge connection.
// All per-frame state — header bytes, payload, the summary decoder, the
// ack writer — is connection-owned and reused, so a steady fold costs no
// allocations beyond the published aggregate itself.
func (r *Root) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	if err := framing.ReadPreamble(br); err != nil {
		r.logf("cluster: %s: %v", conn.RemoteAddr(), err)
		return
	}
	var (
		edge    string
		est     *edgeState
		dec     *SummaryDecoder
		hdr     [framing.HeaderSize]byte
		payload []byte
	)
	acks := framing.NewAckWriter(bw, br)
	defer func() {
		if est != nil {
			est.connected.Add(-1)
		}
	}()
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if !errors.Is(err, io.EOF) {
				r.logf("cluster: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		h := framing.ParseHeader(hdr[:])
		if h.Len > framing.MaxSummaryFrameLen {
			r.refuse(bw, h.Seq, framing.AckBadFrame, fmt.Sprintf("frame of %d bytes exceeds %d", h.Len, framing.MaxSummaryFrameLen))
			return
		}
		if cap(payload) < int(h.Len) {
			payload = make([]byte, h.Len)
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(br, payload); err != nil {
			r.logf("cluster: %s: reading payload: %v", conn.RemoteAddr(), err)
			return
		}
		ack := framing.Ack{Seq: h.Seq}
		fatal := false
		switch {
		case r.draining.Load() && h.Type != framing.TypeClose:
			ack.Code, ack.Msg = framing.AckShuttingDown, "root is draining"
		case h.Type == framing.TypeHello:
			edge, est, ack = r.hello(edge, est, string(payload), h.Seq)
		case h.Type == framing.TypeClose:
			fatal = true // acked below, then the connection closes
		case edge == "":
			ack.Code, ack.Msg = framing.AckNotHello, "hello must precede aggregation-tier frames"
		case h.Type == framing.TypeSummary:
			if dec == nil {
				dec = NewSummaryDecoder()
			}
			ack = r.fold(edge, est, dec, payload, h.Seq)
		case h.Type == framing.TypeSeqQuery:
			ack = r.lastSeq(edge, string(payload), h.Seq)
		default:
			ack.Code = framing.AckBadFrame
			ack.Msg = fmt.Sprintf("frame type %v not part of the aggregation tier", h.Type)
			fatal = true
		}
		if err := acks.WriteAck(ack); err != nil {
			return
		}
		if fatal || ack.Code == framing.AckBadFrame {
			acks.Flush() //nolint:errcheck // best-effort: deliver the final ack before closing
			return
		}
	}
}

// refuse writes one refusal ack, best-effort (the caller closes anyway).
func (r *Root) refuse(bw *bufio.Writer, seq uint32, code framing.AckCode, msg string) {
	if _, err := bw.Write(framing.AppendAck(nil, framing.Ack{Seq: seq, Code: code, Msg: msg})); err == nil {
		bw.Flush() //nolint:errcheck // best-effort refusal
	}
}

// hello registers the connection's edge identity and resolves its state
// cell — the one edges-map access on the connection's whole fold path.
func (r *Root) hello(curEdge string, curSt *edgeState, id string, seq uint32) (string, *edgeState, framing.Ack) {
	ack := framing.Ack{Seq: seq}
	if id == "" || len(id) > framing.MaxNameLen {
		ack.Code = framing.AckBadFrame
		ack.Msg = fmt.Sprintf("edge id length %d outside [1, %d]", len(id), framing.MaxNameLen)
		return curEdge, curSt, ack
	}
	if curSt != nil {
		curSt.connected.Add(-1)
	}
	r.edgeMu.Lock()
	st := r.edges[id]
	if st == nil {
		st = &edgeState{}
		r.edges[id] = st
	}
	r.edgeMu.Unlock()
	st.connected.Add(1)
	return id, st, ack
}

// fold decodes and folds one shipped summary, advancing the (edge, stream)
// high-water sequence exactly when the fold succeeds. The fold mutex spans
// the dedup check, the manager fold, and the high-water advance, so a
// snapshot observes every fold either fully applied in both captures or in
// neither.
func (r *Root) fold(edge string, est *edgeState, dec *SummaryDecoder, payload []byte, frameSeq uint32) framing.Ack {
	ack := framing.Ack{Seq: frameSeq}
	name, seq, wrapped, err := dec.Decode(payload)
	if err != nil {
		ack.Code, ack.Msg = framing.AckBadFrame, err.Error()
		return ack
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	last := r.seqs[edge][name]
	if seq <= last {
		// Already folded (a re-ship after an edge restart, or a retry whose
		// original ack was lost). Success-class: the shipper discards its
		// record.
		ack.Code, ack.Info = framing.AckDuplicate, last
		r.deduped.Add(1)
		est.deduped.Add(1)
		return ack
	}
	stream, ok := r.cfg.Manager.Stream(name)
	if !ok {
		if !r.cfg.AutoCreate {
			ack.Code, ack.Msg = framing.AckUnknownStream, fmt.Sprintf("stream %q does not exist on the root", name)
			return ack
		}
		stream, _, err = r.cfg.Manager.CreateStream(name, dpmg.StreamConfig{K: wrapped.K()})
		if err != nil {
			ack.Code, ack.Msg = framing.AckBadItem, err.Error()
			return ack
		}
	}
	if err := stream.FoldSummary(wrapped); err != nil {
		if errors.Is(err, dpmg.ErrFaultIn) {
			ack.Code, ack.Msg = framing.AckUnavailable, err.Error()
		} else {
			ack.Code, ack.Msg = framing.AckBadItem, err.Error()
		}
		return ack
	}
	streams := r.seqs[edge]
	if streams == nil {
		streams = make(map[string]uint64)
		r.seqs[edge] = streams
	}
	streams[name] = seq
	r.folded.Add(1)
	est.folded.Add(1)
	est.lastFold.Store(time.Now().UnixNano())
	if r.cfg.FoldHook != nil {
		r.cfg.FoldHook(edge, name, seq, wrapped)
	}
	ack.Info = seq
	return ack
}

// lastSeq answers a seq-query: the highest folded sequence for (edge,
// stream), in the ack's info field.
func (r *Root) lastSeq(edge, stream string, frameSeq uint32) framing.Ack {
	r.mu.Lock()
	defer r.mu.Unlock()
	return framing.Ack{Seq: frameSeq, Info: r.seqs[edge][stream]}
}

// RootStats is a point-in-time description of the fan-in tier.
type RootStats struct {
	// Folded and Deduped count summaries folded and duplicate sequences
	// refused since process start.
	Folded, Deduped int64
	// Edges describes every edge that has ever said hello, sorted by name.
	Edges []EdgeStats
}

// EdgeStats is one edge's fan-in bookkeeping.
type EdgeStats struct {
	// Edge is the edge's hello identity.
	Edge string
	// Connected counts the edge's live connections.
	Connected int
	// Folded and Deduped count this edge's folded summaries and refused
	// duplicates.
	Folded, Deduped int64
	// LastFold is the wall-clock time of the edge's most recent fold (zero
	// when it has folded nothing) — the numerator of the fan-in lag gauge.
	LastFold time.Time
}

// Stats returns the root's current fan-in stats. It reads only atomics and
// the edges map, never the fold mutex, so a scrape cannot stall a fold
// (and a slow fold cannot stall a scrape).
func (r *Root) Stats() RootStats {
	out := RootStats{Folded: r.folded.Load(), Deduped: r.deduped.Load()}
	r.edgeMu.Lock()
	for name, st := range r.edges {
		es := EdgeStats{
			Edge: name, Connected: int(st.connected.Load()),
			Folded: st.folded.Load(), Deduped: st.deduped.Load(),
		}
		if ns := st.lastFold.Load(); ns != 0 {
			es.LastFold = time.Unix(0, ns)
		}
		out.Edges = append(out.Edges, es)
	}
	r.edgeMu.Unlock()
	sort.Slice(out.Edges, func(i, j int) bool { return out.Edges[i].Edge < out.Edges[j].Edge })
	return out
}

// seqTable is the JSON shape of the persisted dedup table: edge → stream →
// seq. Root.seqs holds exactly this map, so the file format is the
// in-memory table.
type seqTable struct {
	Seqs map[string]map[string]uint64 `json:"seqs"`
}

// SnapshotSeqs encodes the (edge, stream) → last-folded-seq table and
// invokes save with the fold mutex held — a quiesce of every fold — so no
// fold can land between the table capture and whatever save persists
// beside it (the manager snapshot): the two always describe the same fold
// set. Capturing them without the quiesce leaves a power-loss window: a
// fold landing between the captures is in the snapshot but not the table,
// and if power dies before its ack reaches the edge, the edge re-ships and
// the restarted root folds it again — a double count. Folds (and edge
// acks) stall for save's duration; that is the price of the closed window,
// and edges just see slower acks.
//
// The residual exposure is a crash between save's own file renames, which
// can leave the new snapshot beside the previous table; the server writes
// snapshot first so that direction only re-folds a fold whose ack was
// also lost in transit — never silently drops one.
func (r *Root) SnapshotSeqs(save func(table []byte) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	table, err := json.Marshal(seqTable{Seqs: r.seqs})
	if err != nil {
		return err
	}
	return save(append(table, '\n'))
}

// LoadSeqs restores a SnapshotSeqs table, replacing the current one. Call
// it at startup, before Serve.
func (r *Root) LoadSeqs(rd io.Reader) error {
	var t seqTable
	if err := json.NewDecoder(rd).Decode(&t); err != nil {
		return err
	}
	if t.Seqs == nil {
		t.Seqs = make(map[string]map[string]uint64)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seqs = t.Seqs
	return nil
}
