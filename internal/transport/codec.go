// Package transport exposes a discovery system over real TCP (stdlib net):
// a length-prefixed JSON wire protocol, a concurrent server that fronts
// any discovery.System, and a client. A grid site runs one gateway process
// (cmd/lormnode) next to its LORM deployment; providers and requesters
// register and query over the network.
//
// The protocol is deliberately simple and version-tagged:
//
//	frame  := uint32 big-endian length | payload
//	payload:= JSON-encoded Request or Response
//
// Frames are capped at MaxFrame to bound memory under malformed input.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"lorm/internal/discovery"
	"lorm/internal/resource"
)

// Version is the protocol version; mismatches are rejected.
const Version = 1

// MaxFrame bounds a single frame's payload (16 MiB).
const MaxFrame = 16 << 20

// Op enumerates the remote operations.
type Op string

// Remote operations. The batch verbs amortize codec and syscall cost: one
// frame carries many registers or discovers, dispatched server-side into
// the same discovery.System calls as their singular forms.
const (
	OpPing          Op = "ping"
	OpRegister      Op = "register"
	OpDiscover      Op = "discover"
	OpRegisterBatch Op = "registerbatch"
	OpDiscoverBatch Op = "discoverbatch"
	OpStats         Op = "stats"
	OpAddNode       Op = "addnode"
	OpRemove        Op = "removenode"
)

// BatchQuery is one discover inside an OpDiscoverBatch frame.
type BatchQuery struct {
	Subs      []resource.SubQuery `json:"subs"`
	Requester string              `json:"requester,omitempty"`
}

// BatchResult is one item's outcome inside a batch response. Items fail
// independently: a malformed register does not poison its batch frame,
// it just carries its own error.
type BatchResult struct {
	OK      bool            `json:"ok"`
	Error   string          `json:"error,omitempty"`
	Cost    discovery.Cost  `json:"cost,omitempty"`
	Owners  []string        `json:"owners,omitempty"`  // discover items
	Matches []resource.Info `json:"matches,omitempty"` // discover items
}

// Request is the client→server message.
type Request struct {
	Version   int                 `json:"v"`
	ID        uint64              `json:"id"`
	Op        Op                  `json:"op"`
	Info      *resource.Info      `json:"info,omitempty"`      // register
	Subs      []resource.SubQuery `json:"subs,omitempty"`      // discover
	Requester string              `json:"requester,omitempty"` // discover
	Addr      string              `json:"addr,omitempty"`      // addnode / removenode
	Infos     []resource.Info     `json:"infos,omitempty"`     // registerbatch
	Queries   []BatchQuery        `json:"queries,omitempty"`   // discoverbatch
	// Trace carries the caller's distributed-trace context on register and
	// discover (and their batch forms, where every item parents under the
	// same caller span), so the server-side fabric spans parent under the
	// caller's span. Optional and version-tolerant: old clients omit it, old
	// servers ignore the unknown field, and behavior is identical either way.
	Trace *discovery.TraceContext `json:"trace,omitempty"`
}

// Stats is the server-state summary returned by OpStats.
type Stats struct {
	System      string  `json:"system"`
	Nodes       int     `json:"nodes"`
	Attributes  int     `json:"attributes"`
	TotalPieces int     `json:"total_pieces"`
	AvgDir      float64 `json:"avg_directory"`
	MaxDir      int     `json:"max_directory"`
	// Metrics is the gateway's metrics snapshot digest, present when the
	// served system routes through an instrumented fabric — remote clients
	// get headline observability without scraping the HTTP endpoint.
	Metrics *MetricsDigest `json:"metrics,omitempty"`
}

// MetricsDigest condenses the gateway's op metrics: the grand total plus
// per-system op counts and estimated hop quantiles, and the process
// failure-injection counters (detours around dead hops, exhausted lookups,
// crash events and the entries they destroyed) so remote clients see the
// gateway's fault history without scraping /metrics.
type MetricsDigest struct {
	TotalOps      uint64 `json:"total_ops"`
	LookupDetours uint64 `json:"lookup_detours,omitempty"`
	QueryFailures uint64 `json:"query_failures,omitempty"`
	Crashes       uint64 `json:"crashes,omitempty"`
	LostEntries   uint64 `json:"lost_entries,omitempty"`
	// Directory index activity: stored pieces, range matches served, and
	// entries migrated by churn handover, so remote clients see the
	// gateway's storage workload alongside its routing workload.
	DirAdds      uint64 `json:"dir_adds,omitempty"`
	DirMatches   uint64 `json:"dir_matches,omitempty"`
	DirHandovers uint64 `json:"dir_handovers,omitempty"`
	// Replication-layer activity: replica copies placed and dropped, reads
	// served by replica holders, and hot-key promotions/demotions.
	ReplicasPlaced   uint64 `json:"replicas_placed,omitempty"`
	ReplicasDropped  uint64 `json:"replicas_dropped,omitempty"`
	ReplicaReadHits  uint64 `json:"replica_read_hits,omitempty"`
	HotKeyPromotions uint64 `json:"hotkey_promotions,omitempty"`
	HotKeyDemotions  uint64 `json:"hotkey_demotions,omitempty"`
	// Membership and network-fault activity: failure-detector suspicions
	// opened/cleared/confirmed, partition sets formed and healed, and
	// messages blocked by partitions or blackholes.
	Suspicions        uint64 `json:"suspicions,omitempty"`
	SuspicionsCleared uint64 `json:"suspicions_cleared,omitempty"`
	FailuresConfirmed uint64 `json:"failures_confirmed,omitempty"`
	PartitionsStarted uint64 `json:"partitions_started,omitempty"`
	PartitionsHealed  uint64 `json:"partitions_healed,omitempty"`
	MessagesBlocked   uint64 `json:"messages_blocked,omitempty"`
	// Tracing activity: operations sampled into spans, operations finished
	// without a span, and slow-op detections, summed over systems.
	SpansSampled uint64 `json:"spans_sampled,omitempty"`
	SpansDropped uint64 `json:"spans_dropped,omitempty"`
	SlowOps      uint64 `json:"slow_ops,omitempty"`
	// Pipelined-transport activity: calls through multiplexed client pipes,
	// pipes torn down by wire failures, and the batch-verb ledger (items
	// carried in batch frames vs items individually executed — the two must
	// agree, metricscheck -transport enforces it). Client counters are
	// nonzero only in processes that also run clients.
	PipelineCalls   uint64 `json:"pipeline_calls,omitempty"`
	PipelineBreaks  uint64 `json:"pipeline_breaks,omitempty"`
	BatchOps        uint64 `json:"batch_ops,omitempty"`
	BatchDispatched uint64 `json:"batch_dispatched,omitempty"`
	// ART trie activity: trie-descent forwards, descents completed by the
	// ring fallback, and value-bucket splits — nonzero only in gateways
	// serving the art system.
	TrieDescents    uint64          `json:"trie_descents,omitempty"`
	TrieFallbacks   uint64          `json:"trie_fallbacks,omitempty"`
	TrieBucketSplit uint64          `json:"trie_bucket_splits,omitempty"`
	Systems         []SystemMetrics `json:"systems,omitempty"`
}

// SystemMetrics is one system's slice of the digest.
type SystemMetrics struct {
	System  string  `json:"system"`
	Ops     uint64  `json:"ops"`
	P50Hops float64 `json:"p50_hops"`
	P99Hops float64 `json:"p99_hops"`
}

// Response is the server→client message.
type Response struct {
	Version int             `json:"v"`
	ID      uint64          `json:"id"`
	OK      bool            `json:"ok"`
	Error   string          `json:"error,omitempty"`
	Cost    discovery.Cost  `json:"cost,omitempty"`
	Matches []resource.Info `json:"matches,omitempty"` // discover: flattened per-attr matches
	Owners  []string        `json:"owners,omitempty"`  // discover: joined owners
	Results []BatchResult   `json:"results,omitempty"` // registerbatch / discoverbatch
	Stats   *Stats          `json:"stats,omitempty"`   // stats
}

// encodeBuf pairs a reusable frame buffer with a JSON encoder bound to it,
// so the steady-state encode path allocates nothing but the JSON itself.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encodePool = sync.Pool{New: func() interface{} {
	e := &encodeBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// payloadPool recycles readFrame payload slices. Oversized buffers are not
// repooled so a single huge frame cannot pin memory for the process life.
var payloadPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

const payloadPoolCap = 1 << 20

// writeFrame encodes v as JSON into a pooled buffer and writes header and
// payload as one length-prefixed frame in a single Write — one syscall per
// frame instead of two, and zero steady-state buffer allocations.
func writeFrame(w io.Writer, v interface{}) error {
	e := encodePool.Get().(*encodeBuf)
	e.buf.Reset()
	e.buf.Write([]byte{0, 0, 0, 0}) // header placeholder, patched below
	if err := e.enc.Encode(v); err != nil {
		// A json.Encoder remembers its first error; drop this one from the
		// pool rather than repool a poisoned encoder.
		return fmt.Errorf("transport: encode: %w", err)
	}
	frame := e.buf.Bytes()
	n := len(frame) - 4
	if n > MaxFrame {
		encodePool.Put(e)
		return fmt.Errorf("transport: frame of %d bytes exceeds cap", n)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	_, err := w.Write(frame)
	encodePool.Put(e)
	return err
}

// readFrame reads one length-prefixed frame into a pooled buffer and
// decodes it into v.
func readFrame(r io.Reader, v interface{}) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF signals orderly close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("transport: incoming frame of %d bytes exceeds cap", n)
	}
	bp := payloadPool.Get().(*[]byte)
	if uint32(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	payload := (*bp)[:n]
	defer func() {
		if cap(*bp) <= payloadPoolCap {
			payloadPool.Put(bp)
		}
	}()
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("transport: short frame: %w", err)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}
