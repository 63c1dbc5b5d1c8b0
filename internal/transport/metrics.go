package transport

import (
	"net"
	"sync/atomic"

	"lorm/internal/metrics"
)

// Process-wide gateway counters; every Server in the process records into
// the same families. Request counters are pre-resolved per verb so the
// request loop never pays a labeled lookup.
var (
	mConnections = metrics.Default().Counter("transport_connections_total",
		"TCP connections accepted by gateway servers")
	mActiveConns = metrics.Default().Gauge("transport_active_connections",
		"currently open gateway connections")
	mBytesRead = metrics.Default().Counter("transport_bytes_read_total",
		"bytes read from gateway connections")
	mBytesWritten = metrics.Default().Counter("transport_bytes_written_total",
		"bytes written to gateway connections")
	mDecodeErrors = metrics.Default().Counter("transport_decode_errors_total",
		"malformed or oversized frames received by gateway servers")
	mRequestVec = metrics.Default().CounterVec("transport_requests_total",
		"requests handled by gateway servers", "verb")
	mRequests = func() (cs [OpRemove + 1]*metrics.Counter) {
		for op := OpPing; op <= OpRemove; op++ {
			cs[op] = mRequestVec.With(op.String())
		}
		return cs
	}()
	mRequestsUnknown = mRequestVec.With("unknown")
	mIdleDisconnects = metrics.Default().Counter("transport_server_idle_disconnects_total",
		"connections closed by gateway servers after the read deadline expired")
)

// Client-side failure-handling counters (one process often runs both a
// gateway and remote clients, so these live in the same registry).
var (
	mClientRetries = metrics.Default().Counter("transport_client_retries_total",
		"client dial or call attempts retried after a transport failure")
	mClientTimeouts = metrics.Default().Counter("transport_client_timeouts_total",
		"client calls that missed their per-call deadline")
	mClientRedials = metrics.Default().Counter("transport_client_redials_total",
		"connections re-established after a broken or poisoned transport")
)

// Pipelined-client counters and gauges. The inflight gauge counts only
// windowed (data-verb) calls, the population the window bounds; the peak
// and window-slots gauges are monotone maxima — in-flight calls observed
// at once, and in-flight capacity (the sum of concurrently live pipes'
// windows) configured at once — so a snapshot can check
// inflight-peak ≤ window-slots after the fact (metricscheck -transport).
var (
	mPipelineCalls = metrics.Default().Counter("transport_pipeline_calls_total",
		"calls dispatched through multiplexed client pipelines")
	mPipelineBreaks = metrics.Default().Counter("transport_pipeline_breaks_total",
		"client pipelines torn down by a wire failure or missed deadline")
	mPipelineInflight = metrics.Default().Gauge("transport_pipeline_inflight",
		"data-verb calls currently in flight across client pipelines")
	mPipelineInflightPeak = metrics.Default().Gauge("transport_pipeline_inflight_peak",
		"highest observed in-flight data-verb call count")
	mPipelineWindowSlots = metrics.Default().Gauge("transport_pipeline_window_slots",
		"highest total in-flight window capacity across concurrently live client pipelines")
)

// pipelineLiveSlots sums the window sizes of currently live pipes; the
// slots gauge records its high-water mark, which bounds every in-flight
// peak the process can have observed.
var pipelineLiveSlots atomic.Int64

// trackPipelineWindow accounts a new pipe's window and raises the
// window-slots gauge if the live capacity hit a new max.
func trackPipelineWindow(w int) {
	cur := pipelineLiveSlots.Add(int64(w))
	for {
		prev := mPipelineWindowSlots.Value()
		if cur <= prev {
			return
		}
		// Gauge has no CAS; a concurrent larger Set can only raise the value
		// further, and this loop re-checks until the max is stable.
		mPipelineWindowSlots.Set(cur)
		if mPipelineWindowSlots.Value() >= cur {
			return
		}
	}
}

// untrackPipelineWindow releases a dead pipe's window capacity.
func untrackPipelineWindow(w int) {
	pipelineLiveSlots.Add(int64(-w))
}

// trackPipelineInflight raises the in-flight peak gauge to the current
// in-flight count if it is a new max.
func trackPipelineInflight() {
	cur := mPipelineInflight.Value()
	for {
		peak := mPipelineInflightPeak.Value()
		if cur <= peak {
			return
		}
		mPipelineInflightPeak.Set(cur)
	}
}

// Batch-verb accounting: ops-in-frames is bumped once per decoded batch
// frame with the item count, dispatched once per item actually executed
// against the discovery system — metricscheck -transport requires the two
// to agree exactly (no item silently skipped or double-run).
var (
	mBatchOpsVec = metrics.Default().CounterVec("transport_batch_ops_total",
		"operations carried inside batch frames accepted by gateway servers", "verb")
	mBatchDispatchedVec = metrics.Default().CounterVec("transport_batch_dispatched_total",
		"batch items individually executed (or rejected) by gateway servers", "verb")
	mBatchRegisterOps        = mBatchOpsVec.With(OpRegisterBatch.String())
	mBatchDiscoverOps        = mBatchOpsVec.With(OpDiscoverBatch.String())
	mBatchRegisterDispatched = mBatchDispatchedVec.With(OpRegisterBatch.String())
	mBatchDiscoverDispatched = mBatchDispatchedVec.With(OpDiscoverBatch.String())
)

// Failure-injection counters surfaced in the OpStats digest. Registration
// is idempotent, so these resolve the same process-wide families the chord,
// cycloid and churn packages record into; in a gateway that never links
// those packages the families simply stay at zero.
var (
	mdChordDetours = metrics.Default().Counter("chord_lookup_detours_total",
		"chord lookup hops that detoured around a dead preferred finger")
	mdCycloidDetours = metrics.Default().Counter("cycloid_lookup_detours_total",
		"cycloid lookup hops that detoured around a dead preferred link")
	mdChordFailures = metrics.Default().Counter("chord_query_failures_total",
		"chord lookups that failed to resolve a root")
	mdCycloidFailures = metrics.Default().Counter("cycloid_query_failures_total",
		"cycloid lookups that failed to resolve a root")
	mdCrashes = metrics.Default().Counter("churn_crashes_total",
		"abrupt crash failures injected by churn processes")
	mdLostEntries = metrics.Default().Counter("churn_lost_entries_total",
		"directory entries lost to crash failures injected by churn processes")
	mdDirAdds = metrics.Default().Counter("directory_adds_total",
		"Entries stored into node directories (Add and AddAll).")
	mdDirMatches = metrics.Default().Counter("directory_matches_total",
		"Range-match operations served by node directories (Match and MatchAppend).")
	mdDirHandovers = metrics.Default().Counter("directory_entries_handed_over_total",
		"Entries removed from a directory by handover paths (TakeRange, TakeIf, TakeAll).")
	mdReplicasPlaced = metrics.Default().Counter("replication_replicas_placed_total",
		"replica copies stored by placement, repair and hot-key promotion")
	mdReplicasDropped = metrics.Default().Counter("replication_replicas_dropped_total",
		"surplus or invalidated replica copies removed by repair")
	mdReplicaReadHits = metrics.Default().Counter("replication_replica_read_hits_total",
		"single-key reads served by a replica holder via power-of-two-choices")
	mdHotKeyPromotions = metrics.Default().Counter("replication_hotkey_promotions_total",
		"key-groups promoted to hot-key replication")
	mdHotKeyDemotions = metrics.Default().Counter("replication_hotkey_demotions_total",
		"hot-key promotions dropped by invalidation (re-announce) or demotion")
	mdMemberSuspicions = metrics.Default().Counter("membership_suspicions_total",
		"failure-detector suspicions opened")
	mdMemberCleared = metrics.Default().Counter("membership_suspicions_cleared_total",
		"failure-detector suspicions cleared by later contact")
	mdMemberConfirms = metrics.Default().Counter("membership_confirms_total",
		"failure-detector confirmations (suspicions promoted to failures)")
	mdNetPartitions = metrics.Default().Counter("netfault_partitions_started_total",
		"named network partition sets formed by fault planes")
	mdNetHealed = metrics.Default().Counter("netfault_partitions_healed_total",
		"named network partition sets healed by fault planes")
	mdNetBlocked = metrics.Default().Counter("netfault_blocked_messages_total",
		"messages blocked by an active partition or blackhole")
	mdARTDescents = metrics.Default().Counter("art_descent_steps_total",
		"trie-descent forwards taken by ART routing")
	mdARTFallbacks = metrics.Default().Counter("art_descent_fallbacks_total",
		"ART routes completed by the ring lookup after a stale or exhausted descent")
	mdARTBucketSplits = metrics.Default().Counter("art_bucket_splits_total",
		"value buckets split by a node join")
)

// countRequest bumps the per-verb request counter.
func countRequest(op Op) {
	if op == 0 || int(op) >= len(mRequests) {
		mRequestsUnknown.Inc()
		return
	}
	mRequests[op].Inc()
}

// countingConn wraps a server-side connection and accounts its traffic.
type countingConn struct {
	net.Conn
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		mBytesRead.Add(uint64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		mBytesWritten.Add(uint64(n))
	}
	return n, err
}
