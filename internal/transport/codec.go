// Package transport exposes a discovery system over real TCP (stdlib net):
// a length-prefixed binary wire protocol, a concurrent server that fronts
// any discovery.System, and a client. A grid site runs one gateway process
// (cmd/lormnode) next to its LORM deployment; providers and requesters
// register and query over the network.
//
// Every peer is built from this tree, so there is one codec and one
// protocol version. Integers are unsigned varints, floats are their eight
// IEEE-754 bytes big-endian, strings and lists are a varint length or count
// followed by the items; every length and count is checked against the
// bytes left in the frame before anything is allocated.
//
//	frame    := uint32 big-endian payload length (≤ MaxFrame) | payload
//	payload  := version u8 | id | request or response body
//	request  := op u8 | has info u8 [info] | subs | requester | addr |
//	            infos | queries: count, query... | has trace u8 [trace]
//	response := result | results: count, result... | has stats u8 [stats]
//	result   := ok u8 | error | hops | visited | messages | matches: infos |
//	            owners: count, string...
//	info     := attr | value f64 | owner
//	infos    := count, (attr ref | value f64 | owner)...
//	attr ref := 0 (the previous item's attr) | len+1, bytes
//	subs     := count, (attr | low f64 | high f64)...
//	query    := subs | requester
//	trace    := trace id u64 | span id u64 | sampled u8
//	stats    := system | nodes | attributes | pieces | max dir | avg dir f64 |
//	            has digest u8 [digest counters in declaration order,
//	            systems: count, (system, ops, p50 f64, p99 f64)...]
//
// A field a verb does not use is an empty string or list: one zero byte.
//
// version and id lead every payload of every version, so a peer built from
// another tree is told so, by ID, instead of being dropped on a decode
// failure.
//
// Both ends buffer the socket. A writer flushes when nobody else is about
// to write — the client's writer when its send queue is empty, the server
// when the last handler queued on the connection has written — so a lone
// frame leaves at once and a pipelined window shares system calls. No
// timer is involved. A server sender that flushed then yields its thread
// (yieldThread says why).
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"lorm/internal/discovery"
	"lorm/internal/resource"
)

// Version is the protocol version, the first byte of every payload;
// mismatches are rejected with an explicit error.
const Version = 2

// MaxFrame bounds a single frame's payload (16 MiB).
const MaxFrame = 16 << 20

// Op enumerates the remote operations; its value is the wire's op byte.
type Op uint8

// Remote operations. The batch verbs amortize codec and syscall cost: one
// frame carries many registers or discovers, dispatched server-side into
// the same discovery.System calls as their singular forms.
const (
	OpPing Op = iota + 1
	OpRegister
	OpDiscover
	OpRegisterBatch
	OpDiscoverBatch
	OpStats
	OpAddNode
	OpRemove
)

var opNames = [...]string{"", "ping", "register", "discover", "registerbatch", "discoverbatch", "stats", "addnode", "removenode"}

// String is the verb as it appears in logs, errors and metric labels.
func (o Op) String() string {
	if int(o) < len(opNames) && o != 0 {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// BatchQuery is one discover inside an OpDiscoverBatch frame.
type BatchQuery struct {
	Subs      []resource.SubQuery
	Requester string
}

// BatchResult is one item's outcome inside a batch response. Items fail
// independently: a malformed register does not poison its batch frame,
// it just carries its own error.
type BatchResult struct {
	OK      bool
	Error   string
	Cost    discovery.Cost
	Owners  []string        // discover items
	Matches []resource.Info // discover items
}

// Request is the client→server message.
type Request struct {
	Version   int
	ID        uint64
	Op        Op
	Info      *resource.Info      // register
	Subs      []resource.SubQuery // discover
	Requester string              // discover
	Addr      string              // addnode / removenode
	Infos     []resource.Info     // registerbatch
	Queries   []BatchQuery        // discoverbatch
	// Trace carries the caller's distributed-trace context on register and
	// discover (and their batch forms, where every item parents under the
	// same caller span), so the server-side fabric spans parent under the
	// caller's span. Untraced calls leave it nil.
	Trace *discovery.TraceContext
}

// Stats is the server-state summary returned by OpStats.
type Stats struct {
	System      string
	Nodes       int
	Attributes  int
	TotalPieces int
	AvgDir      float64
	MaxDir      int
	// Metrics is the gateway's metrics snapshot digest, present when the
	// served system routes through an instrumented fabric — remote clients
	// get headline observability without scraping the HTTP endpoint.
	Metrics *MetricsDigest
}

// MetricsDigest condenses the gateway's op metrics: the grand total plus
// per-system op counts and estimated hop quantiles, and the process
// failure-injection counters (detours around dead hops, exhausted lookups,
// crash events and the entries they destroyed) so remote clients see the
// gateway's fault history without scraping /metrics.
type MetricsDigest struct {
	TotalOps      uint64
	LookupDetours uint64
	QueryFailures uint64
	Crashes       uint64
	LostEntries   uint64
	// Directory index activity: stored pieces, range matches served, and
	// entries migrated by churn handover, so remote clients see the
	// gateway's storage workload alongside its routing workload.
	DirAdds      uint64
	DirMatches   uint64
	DirHandovers uint64
	// Replication-layer activity: replica copies placed and dropped, reads
	// served by replica holders, and hot-key promotions/demotions.
	ReplicasPlaced   uint64
	ReplicasDropped  uint64
	ReplicaReadHits  uint64
	HotKeyPromotions uint64
	HotKeyDemotions  uint64
	// Membership and network-fault activity: failure-detector suspicions
	// opened/cleared/confirmed, partition sets formed and healed, and
	// messages blocked by partitions or blackholes.
	Suspicions        uint64
	SuspicionsCleared uint64
	FailuresConfirmed uint64
	PartitionsStarted uint64
	PartitionsHealed  uint64
	MessagesBlocked   uint64
	// Tracing activity: operations sampled into spans, operations finished
	// without a span, and slow-op detections, summed over systems.
	SpansSampled uint64
	SpansDropped uint64
	SlowOps      uint64
	// Pipelined-transport activity: calls through multiplexed client pipes,
	// pipes torn down by wire failures, and the batch-verb ledger (items
	// carried in batch frames vs items individually executed — the two must
	// agree, metricscheck -transport enforces it). Client counters are
	// nonzero only in processes that also run clients.
	PipelineCalls   uint64
	PipelineBreaks  uint64
	BatchOps        uint64
	BatchDispatched uint64
	// ART trie activity: trie-descent forwards, descents completed by the
	// ring fallback, and value-bucket splits — nonzero only in gateways
	// serving the art system.
	TrieDescents    uint64
	TrieFallbacks   uint64
	TrieBucketSplit uint64
	Systems         []SystemMetrics
}

// fields lists the digest's counters in wire order, for both directions.
func (m *MetricsDigest) fields() []*uint64 {
	return []*uint64{
		&m.TotalOps, &m.LookupDetours, &m.QueryFailures, &m.Crashes, &m.LostEntries,
		&m.DirAdds, &m.DirMatches, &m.DirHandovers,
		&m.ReplicasPlaced, &m.ReplicasDropped, &m.ReplicaReadHits, &m.HotKeyPromotions, &m.HotKeyDemotions,
		&m.Suspicions, &m.SuspicionsCleared, &m.FailuresConfirmed,
		&m.PartitionsStarted, &m.PartitionsHealed, &m.MessagesBlocked,
		&m.SpansSampled, &m.SpansDropped, &m.SlowOps,
		&m.PipelineCalls, &m.PipelineBreaks, &m.BatchOps, &m.BatchDispatched,
		&m.TrieDescents, &m.TrieFallbacks, &m.TrieBucketSplit,
	}
}

// SystemMetrics is one system's slice of the digest.
type SystemMetrics struct {
	System  string
	Ops     uint64
	P50Hops float64
	P99Hops float64
}

// Response is the server→client message.
type Response struct {
	Version int
	ID      uint64
	OK      bool
	Error   string
	Cost    discovery.Cost
	Matches []resource.Info // discover: flattened per-attr matches
	Owners  []string        // discover: joined owners
	Results []BatchResult   // registerbatch / discoverbatch
	Stats   *Stats          // stats
}

// versionError reports a payload of another protocol version. id is the
// request it arrived with, so a server can answer the call that sent it.
type versionError struct {
	got int
	id  uint64
}

func (e *versionError) Error() string {
	return fmt.Sprintf("transport: protocol version %d unsupported (want %d)", e.got, Version)
}

// Smallest encodings, which bound a count by the bytes left in the frame.
const (
	minInfo   = 1 + 8 + 1
	minSub    = 1 + 8 + 8
	minString = 1
	minQuery  = 1 + 1
	minResult = 1 + 1 + 3 + 1 + 1
	minSystem = 1 + 1 + 8 + 8
)

// message is a frame payload: *Request or *Response.
type message interface {
	appendTo(b []byte) []byte
	decodeFrom(d *decoder, version int, id uint64)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInt(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendInfos encodes a list whose consecutive items usually share an
// attribute: 0 stands for the previous item's, so a directory's matches
// carry their attribute once.
func appendInfos(b []byte, infos []resource.Info) []byte {
	b = appendInt(b, len(infos))
	prev := ""
	for i := range infos {
		in := &infos[i]
		if in.Attr == prev {
			b = append(b, 0)
		} else {
			b = append(binary.AppendUvarint(b, uint64(len(in.Attr))+1), in.Attr...)
			prev = in.Attr
		}
		b = appendString(appendFloat(b, in.Value), in.Owner)
	}
	return b
}

func appendSubs(b []byte, subs []resource.SubQuery) []byte {
	b = appendInt(b, len(subs))
	for i := range subs {
		b = appendFloat(appendFloat(appendString(b, subs[i].Attr), subs[i].Low), subs[i].High)
	}
	return b
}

// appendResult encodes one outcome: a batch item's, or a response's own.
func appendResult(b []byte, r *BatchResult) []byte {
	b = appendString(appendBool(b, r.OK), r.Error)
	b = appendInt(appendInt(appendInt(b, r.Cost.Hops), r.Cost.Visited), r.Cost.Messages)
	b = appendInt(appendInfos(b, r.Matches), len(r.Owners))
	for _, o := range r.Owners {
		b = appendString(b, o)
	}
	return b
}

func (r *Request) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(append(b, byte(r.Version)), r.ID)
	b = appendBool(append(b, byte(r.Op)), r.Info != nil)
	if r.Info != nil {
		b = appendString(appendFloat(appendString(b, r.Info.Attr), r.Info.Value), r.Info.Owner)
	}
	b = appendString(appendString(appendSubs(b, r.Subs), r.Requester), r.Addr)
	b = appendInt(appendInfos(b, r.Infos), len(r.Queries))
	for i := range r.Queries {
		b = appendString(appendSubs(b, r.Queries[i].Subs), r.Queries[i].Requester)
	}
	b = appendBool(b, r.Trace != nil)
	if r.Trace != nil {
		b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, r.Trace.TraceID), r.Trace.SpanID)
		b = appendBool(b, r.Trace.Sampled)
	}
	return b
}

func (r *Response) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(append(b, byte(r.Version)), r.ID)
	b = appendResult(b, &BatchResult{OK: r.OK, Error: r.Error, Cost: r.Cost, Owners: r.Owners, Matches: r.Matches})
	b = appendInt(b, len(r.Results))
	for i := range r.Results {
		b = appendResult(b, &r.Results[i])
	}
	b = appendBool(b, r.Stats != nil)
	if s := r.Stats; s != nil {
		b = appendString(b, s.System)
		b = appendInt(appendInt(appendInt(appendInt(b, s.Nodes), s.Attributes), s.TotalPieces), s.MaxDir)
		b = appendBool(appendFloat(b, s.AvgDir), s.Metrics != nil)
		if m := s.Metrics; m != nil {
			for _, f := range m.fields() {
				b = binary.AppendUvarint(b, *f)
			}
			b = appendInt(b, len(m.Systems))
			for _, sm := range m.Systems {
				b = binary.AppendUvarint(appendString(b, sm.System), sm.Ops)
				b = appendFloat(appendFloat(b, sm.P50Hops), sm.P99Hops)
			}
		}
	}
	return b
}

// decoder consumes one payload. The first malformed or truncated field
// sets err and empties b, after which every read returns zero, so callers
// check err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: decode: "+format, args...)
	}
	d.b = nil
}

// take returns the next n bytes, or nil after failing the decode.
func (d *decoder) take(n uint64, what string) []byte {
	if n > uint64(len(d.b)) {
		d.fail("%s of %d bytes with %d left in frame", what, n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) byte() byte {
	if b := d.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int { return int(d.uvarint()) }

func (d *decoder) u64() uint64 {
	if b := d.take(8, "fixed64"); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) float() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) string() string { return string(d.take(d.uvarint(), "string")) }

// list reads a list: its length — refused, before anything is allocated,
// if that many items of at least min bytes each could not fit in what is
// left of the frame — then each item. An empty list is nil.
func list[T any](d *decoder, min int, what string, item func() T) []T {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail("%d %s with %d bytes left in frame", n, what, len(d.b))
	}
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = item()
	}
	return out
}

// infos reads what appendInfos wrote; a run of items that share their
// attribute shares one string.
func (d *decoder) infos() []resource.Info {
	prev := ""
	return list(d, minInfo, "infos", func() resource.Info {
		if n := d.uvarint(); n > 0 {
			prev = string(d.take(n-1, "attr"))
		}
		return resource.Info{Attr: prev, Value: d.float(), Owner: d.string()}
	})
}

func (d *decoder) subs() []resource.SubQuery {
	return list(d, minSub, "sub-queries", func() resource.SubQuery {
		return resource.SubQuery{Attr: d.string(), Low: d.float(), High: d.float()}
	})
}

// result reads what appendResult wrote. (The cost is set field by field:
// only internal/routing builds a Cost whole, and CI holds everyone to it.)
func (d *decoder) result() (r BatchResult) {
	r.OK, r.Error = d.bool(), d.string()
	r.Cost.Hops, r.Cost.Visited, r.Cost.Messages = d.int(), d.int(), d.int()
	r.Matches, r.Owners = d.infos(), list(d, minString, "owners", d.string)
	return r
}

func (r *Request) decodeFrom(d *decoder, version int, id uint64) {
	*r = Request{Version: version, ID: id, Op: Op(d.byte())}
	if d.bool() {
		r.Info = &resource.Info{Attr: d.string(), Value: d.float(), Owner: d.string()}
	}
	r.Subs, r.Requester, r.Addr, r.Infos = d.subs(), d.string(), d.string(), d.infos()
	r.Queries = list(d, minQuery, "queries", func() BatchQuery {
		return BatchQuery{Subs: d.subs(), Requester: d.string()}
	})
	if d.bool() {
		r.Trace = &discovery.TraceContext{TraceID: d.u64(), SpanID: d.u64(), Sampled: d.bool()}
	}
}

func (r *Response) decodeFrom(d *decoder, version int, id uint64) {
	own := d.result()
	*r = Response{Version: version, ID: id, OK: own.OK, Error: own.Error, Cost: own.Cost, Matches: own.Matches, Owners: own.Owners}
	r.Results = list(d, minResult, "results", d.result)
	if d.bool() {
		r.Stats = &Stats{System: d.string(), Nodes: d.int(), Attributes: d.int(), TotalPieces: d.int(), MaxDir: d.int(), AvgDir: d.float()}
		if d.bool() {
			m := &MetricsDigest{}
			for _, f := range m.fields() {
				*f = d.uvarint()
			}
			m.Systems = list(d, minSystem, "digest systems", func() SystemMetrics {
				return SystemMetrics{System: d.string(), Ops: d.uvarint(), P50Hops: d.float(), P99Hops: d.float()}
			})
			r.Stats.Metrics = m
		}
	}
}

// frameBuf is a pooled frame buffer. It carries readFrame's decoder so that
// decoding through the message interface allocates nothing of its own.
type frameBuf struct {
	b []byte
	d decoder
}

// framePool recycles frame buffers, encode and decode alike.
var framePool = sync.Pool{New: func() interface{} {
	return &frameBuf{b: make([]byte, 0, 4096)}
}}

// framePoolCap keeps oversized buffers out of the pool, so a single huge
// frame cannot pin memory for the process life.
const framePoolCap = 1 << 20

func (f *frameBuf) release() {
	if cap(f.b) <= framePoolCap {
		framePool.Put(f)
	}
}

// writeFrame encodes m into a pooled buffer and hands header and payload
// to w in a single Write; steady state allocates nothing.
func writeFrame(w io.Writer, m message) error {
	f := framePool.Get().(*frameBuf)
	defer f.release()
	f.b = m.appendTo(append(f.b[:0], 0, 0, 0, 0)) // header patched below
	n := len(f.b) - 4
	if n > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds cap", n)
	}
	binary.BigEndian.PutUint32(f.b, uint32(n))
	_, err := w.Write(f.b)
	return err
}

// readFrame reads one length-prefixed frame into a pooled buffer and
// decodes it into m. Decoded strings are copies: nothing in m points into
// the buffer. A payload of another protocol version is a *versionError.
func readFrame(r io.Reader, m message) error {
	f := framePool.Get().(*frameBuf)
	defer f.release()
	f.b = f.b[:4]
	if _, err := io.ReadFull(r, f.b); err != nil {
		return err // io.EOF signals orderly close
	}
	n := binary.BigEndian.Uint32(f.b)
	if n > MaxFrame {
		return fmt.Errorf("transport: incoming frame of %d bytes exceeds cap", n)
	}
	if uint32(cap(f.b)) < n {
		f.b = make([]byte, n)
	}
	f.b = f.b[:n]
	if _, err := io.ReadFull(r, f.b); err != nil {
		return fmt.Errorf("transport: short frame: %w", err)
	}
	d := &f.d
	*d = decoder{b: f.b}
	version, id := int(d.byte()), d.uvarint()
	if n > 0 && version != Version {
		return &versionError{got: version, id: id} // id 0 if that version's frame was too short to hold one
	}
	m.decodeFrom(d, version, id)
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes after frame", len(d.b))
	}
	return d.err
}
