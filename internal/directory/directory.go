// Package directory implements a node's resource-information directory: the
// set of ⟨attribute, value, owner⟩ pieces a DHT node is responsible for,
// each remembered together with the overlay key it was stored under so that
// churn (node joins and departures) can hand the right entries over to a
// neighbor.
//
// # Layout
//
// The directory is an attribute-partitioned, ordered index. Every attribute
// owns a partition holding the same entries in two sort orders:
//
//   - a value-ordered view answering range queries: Match(attr, lo, hi) is
//     two binary searches plus one contiguous merge-copy, O(log n + k);
//   - a key-ordered view answering churn handover: TakeRange(keyLo, keyHi)
//     locates the departing key interval by binary search instead of
//     scanning the whole directory with a closure, O(log n + k) to find
//     (plus the slice compaction of the partitions it actually touches).
//
// Each view is a pair of sorted runs — a long merged `main` run and a small
// `stage` run bounded by an adaptive threshold. Add binary-inserts into the
// stage (cheap: the stage is small) and merges stage into main when the
// threshold is reached, so insertion is amortized O(log n) with a small
// constant and reads stay two binary searches per run. AddAll sorts its
// batch once and merges it in a single pass — the bulk path key transfer
// and replication repair ride on.
//
// Len and CountAttr are O(1) (an atomic total plus per-partition lengths).
//
// # Concurrency
//
// Locking is sharded per attribute: a store-level RWMutex guards only the
// partition table (read-locked for a map probe on every access), and each
// partition carries its own RWMutex. Concurrent queries on different
// attributes — the SWORD/MAAN pooled-directory hot path — touch different
// locks entirely. Operations spanning partitions (TakeRange, TakeIf,
// TakeAll, Snapshot) lock one partition at a time, so a concurrent reader
// may observe a cross-partition operation half-applied; single-partition
// operations are atomic. The zero value is ready to use.
//
// # Determinism
//
// All orders are total (value ties broken by owner then key; key ties by
// value then owner), so every query and snapshot is a pure function of the
// stored multiset — results do not depend on insertion order or on how the
// entries are currently split between runs. That keeps the experiment
// figures value-identical under the parallel registration workload.
package directory

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"lorm/internal/resource"
)

// Entry is one stored resource-information piece plus its placement key.
// Key is the overlay's linearized identifier (a Chord ring position, or a
// Cycloid position folded onto the cluster-major order); overlays use it to
// decide which entries migrate when the node set changes.
type Entry struct {
	Key  uint64
	Info resource.Info
}

// valueLess is the total order of the value view: Value, then Owner, then
// Key. Entries equal under it are identical in every field that matters to
// a query, so run boundaries never leak into results.
func valueLess(a, b Entry) bool {
	if a.Info.Value != b.Info.Value {
		return a.Info.Value < b.Info.Value
	}
	if a.Info.Owner != b.Info.Owner {
		return a.Info.Owner < b.Info.Owner
	}
	return a.Key < b.Key
}

// keyLess is the total order of the key view: Key, then Value, then Owner.
func keyLess(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.Info.Value != b.Info.Value {
		return a.Info.Value < b.Info.Value
	}
	return a.Info.Owner < b.Info.Owner
}

type lessFn func(a, b Entry) bool

// stageMax is the staging-run threshold for a main run of the given length:
// large enough that merges amortize to a small constant per insert, capped
// so a single stage insert never moves more than a few tens of KiB.
func stageMax(mainLen int) int {
	t := mainLen / 8
	if t < 64 {
		t = 64
	}
	if t > 1024 {
		t = 1024
	}
	return t
}

// runs is one sort order over a partition's entries: a long sorted main run
// plus a small sorted staging run.
type runs struct {
	main  []Entry
	stage []Entry
}

func (r *runs) len() int { return len(r.main) + len(r.stage) }

// insert binary-inserts e into the staging run, merging into main when the
// stage reaches its threshold.
func (r *runs) insert(e Entry, less lessFn) {
	s := r.stage
	// Upper bound: first index with e < s[i]; duplicates append after their
	// equals, which for a total order is indistinguishable.
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if less(e, s[h]) {
			j = h
		} else {
			i = h + 1
		}
	}
	s = append(s, Entry{})
	copy(s[i+1:], s[i:])
	s[i] = e
	r.stage = s
	if len(r.stage) >= stageMax(len(r.main)) {
		r.main = mergeRuns(r.main, r.stage, less)
		r.stage = nil
		mStageMerges.Inc()
	}
}

// bulk merges an already-sorted batch in. Small batches fold into the
// staging run; anything bigger merges straight into main.
func (r *runs) bulk(sorted []Entry, less lessFn) {
	if len(sorted) == 0 {
		return
	}
	if len(sorted)+len(r.stage) < stageMax(len(r.main)) {
		r.stage = mergeRuns(r.stage, sorted, less)
		return
	}
	r.main = mergeRuns(r.main, mergeRuns(r.stage, sorted, less), less)
	r.stage = nil
	mStageMerges.Inc()
}

// mergeRuns merges two sorted slices into a freshly allocated sorted slice.
func mergeRuns(a, b []Entry, less lessFn) []Entry {
	if len(a) == 0 {
		return append([]Entry(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Entry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// appendMerged appends both runs to dst in sorted order.
func (r *runs) appendMerged(dst []Entry, less lessFn) []Entry {
	a, b := r.main, r.stage
	for len(a) > 0 && len(b) > 0 {
		if less(b[0], a[0]) {
			dst = append(dst, b[0])
			b = b[1:]
		} else {
			dst = append(dst, a[0])
			a = a[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}

// Hand-rolled bounds for the read hot path (no closure, no interface).

// lowerVal returns the first index with Value >= lo.
func lowerVal(s []Entry, lo float64) int {
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s[h].Info.Value < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// upperVal returns the first index with Value > hi.
func upperVal(s []Entry, hi float64) int {
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s[h].Info.Value <= hi {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// lowerKey returns the first index with Key >= k.
func lowerKey(s []Entry, k uint64) int {
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s[h].Key < k {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// upperKey returns the first index with Key > k.
func upperKey(s []Entry, k uint64) int {
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s[h].Key <= k {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// partition holds one attribute's entries in both sort orders under one
// lock shard.
type partition struct {
	mu   sync.RWMutex
	vals runs // value order: Match / MatchAppend
	keys runs // key order: TakeRange / Remove
}

// ident identifies one logical entry for multiset bookkeeping inside
// removal paths (the attribute is fixed per partition).
type ident struct {
	key   uint64
	value float64
	owner string
}

func identOf(e Entry) ident {
	return ident{key: e.Key, value: e.Info.Value, owner: e.Info.Owner}
}

// Store is a concurrency-safe directory. The zero value is ready to use.
type Store struct {
	mu    sync.RWMutex
	parts map[string]*partition
	names []string // sorted attribute names, for deterministic iteration
	count atomic.Int64
}

// part returns the attribute's partition, or nil.
func (s *Store) part(attr string) *partition {
	s.mu.RLock()
	p := s.parts[attr]
	s.mu.RUnlock()
	return p
}

// partCreate returns the attribute's partition, creating it on first use.
func (s *Store) partCreate(attr string) *partition {
	if p := s.part(attr); p != nil {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parts == nil {
		s.parts = make(map[string]*partition)
	}
	if p := s.parts[attr]; p != nil {
		return p
	}
	p := &partition{}
	s.parts[attr] = p
	i := sort.SearchStrings(s.names, attr)
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = attr
	return p
}

// partitions returns every partition in sorted attribute order.
func (s *Store) partitions() []*partition {
	s.mu.RLock()
	out := make([]*partition, len(s.names))
	for i, name := range s.names {
		out[i] = s.parts[name]
	}
	s.mu.RUnlock()
	return out
}

// Add stores one entry.
func (s *Store) Add(e Entry) {
	p := s.partCreate(e.Info.Attr)
	p.mu.Lock()
	p.vals.insert(e, valueLess)
	p.keys.insert(e, keyLess)
	p.mu.Unlock()
	s.count.Add(1)
	mAdds.Inc()
}

// AddAll stores a batch of entries (used by key transfer). The batch is
// grouped by attribute and each group merges into its partition in one
// pass, so bulk handover does not pay per-entry insertion.
func (s *Store) AddAll(es []Entry) {
	if len(es) == 0 {
		return
	}
	groups := make(map[string][]Entry)
	for _, e := range es {
		groups[e.Info.Attr] = append(groups[e.Info.Attr], e)
	}
	for attr, batch := range groups {
		p := s.partCreate(attr)
		sort.Slice(batch, func(i, j int) bool { return valueLess(batch[i], batch[j]) })
		p.mu.Lock()
		p.vals.bulk(batch, valueLess)
		byKey := append([]Entry(nil), batch...)
		sort.Slice(byKey, func(i, j int) bool { return keyLess(byKey[i], byKey[j]) })
		p.keys.bulk(byKey, keyLess)
		p.mu.Unlock()
	}
	s.count.Add(int64(len(es)))
	mAdds.Add(uint64(len(es)))
}

// Len returns the directory size in information pieces — the quantity the
// paper's Figures 3(b)–(d) aggregate per node. O(1).
func (s *Store) Len() int { return int(s.count.Load()) }

// CountAttr returns how many pieces the directory holds for one attribute.
// O(1).
func (s *Store) CountAttr(attr string) int {
	p := s.part(attr)
	if p == nil {
		return 0
	}
	p.mu.RLock()
	n := p.vals.len()
	p.mu.RUnlock()
	return n
}

// Match returns the stored pieces for the given attribute whose values fall
// in [lo, hi], in ascending value order.
func (s *Store) Match(attr string, lo, hi float64) []resource.Info {
	return s.MatchAppend(nil, attr, lo, hi)
}

// MatchAppend appends the pieces matching [lo, hi] to dst and returns the
// extended slice. It allocates only when dst lacks capacity (and then
// exactly once), so range walks that reuse a buffer run allocation-free:
// two binary searches per run plus one merge-copy of the k matches.
func (s *Store) MatchAppend(dst []resource.Info, attr string, lo, hi float64) []resource.Info {
	mMatches.Inc()
	p := s.part(attr)
	if p == nil {
		return dst
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	m, st := p.vals.main, p.vals.stage
	i1, j1 := lowerVal(m, lo), upperVal(m, hi)
	i2, j2 := lowerVal(st, lo), upperVal(st, hi)
	k := (j1 - i1) + (j2 - i2)
	if k == 0 {
		return dst
	}
	if cap(dst)-len(dst) < k {
		grown := make([]resource.Info, len(dst), len(dst)+k)
		copy(grown, dst)
		dst = grown
	}
	a, b := m[i1:j1], st[i2:j2]
	for len(a) > 0 && len(b) > 0 {
		if valueLess(b[0], a[0]) {
			dst = append(dst, b[0].Info)
			b = b[1:]
		} else {
			dst = append(dst, a[0].Info)
			a = a[1:]
		}
	}
	for i := range a {
		dst = append(dst, a[i].Info)
	}
	for i := range b {
		dst = append(dst, b[i].Info)
	}
	mMatchEntries.Add(uint64(k))
	return dst
}

// MatchEntriesAppend is MatchAppend at Entry granularity: it appends the
// stored entries (key included) matching [lo, hi] to dst in ascending value
// order. Replica-aware readers use it so replication-layer deduplication can
// distinguish two resources that agree on (attr, value, owner) but were
// stored under different keys.
func (s *Store) MatchEntriesAppend(dst []Entry, attr string, lo, hi float64) []Entry {
	mMatches.Inc()
	p := s.part(attr)
	if p == nil {
		return dst
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	m, st := p.vals.main, p.vals.stage
	i1, j1 := lowerVal(m, lo), upperVal(m, hi)
	i2, j2 := lowerVal(st, lo), upperVal(st, hi)
	k := (j1 - i1) + (j2 - i2)
	if k == 0 {
		return dst
	}
	if cap(dst)-len(dst) < k {
		grown := make([]Entry, len(dst), len(dst)+k)
		copy(grown, dst)
		dst = grown
	}
	a, b := m[i1:j1], st[i2:j2]
	for len(a) > 0 && len(b) > 0 {
		if valueLess(b[0], a[0]) {
			dst = append(dst, b[0])
			b = b[1:]
		} else {
			dst = append(dst, a[0])
			a = a[1:]
		}
	}
	dst = append(dst, a...)
	dst = append(dst, b...)
	mMatchEntries.Add(uint64(k))
	return dst
}

// AtKey returns every entry stored under the given overlay key, across all
// attributes, in attribute order and key order within an attribute — a pure
// function of the stored multiset, like every other read. Hot-key promotion
// uses it to copy one key-group wholesale.
func (s *Store) AtKey(key uint64) []Entry {
	var out []Entry
	for _, p := range s.partitions() {
		p.mu.RLock()
		start := len(out)
		for _, run := range [][]Entry{p.keys.main, p.keys.stage} {
			i, j := lowerKey(run, key), upperKey(run, key)
			out = append(out, run[i:j]...)
		}
		part := out[start:]
		sort.Slice(part, func(i, j int) bool { return keyLess(part[i], part[j]) })
		p.mu.RUnlock()
	}
	return out
}

// Contains reports whether the directory holds at least one entry equal to
// e (key, attribute, value and owner all matching). Promotion paths use it
// to avoid double-placing a copy a base-replication pass already stored.
func (s *Store) Contains(e Entry) bool {
	p := s.part(e.Info.Attr)
	if p == nil {
		return false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, run := range [][]Entry{p.keys.main, p.keys.stage} {
		i := lowerKey(run, e.Key)
		for ; i < len(run) && run[i].Key == e.Key; i++ {
			if run[i] == e {
				return true
			}
		}
	}
	return false
}

// TakeRange removes and returns every entry whose key lies in the interval
// [keyLo, keyHi] — or, when wrapped, in [keyLo, max] ∪ [min, keyHi] (an
// interval crossing the ring's zero point). It is the churn-handover
// primitive: a joining node calls it on its successor with the key interval
// it now owns, located by binary search on the key-ordered view instead of
// a predicate scan of the whole directory.
func (s *Store) TakeRange(keyLo, keyHi uint64, wrapped bool) []Entry {
	var moved []Entry
	for _, p := range s.partitions() {
		moved = p.takeRange(moved, keyLo, keyHi, wrapped)
	}
	mTakeRanges.Inc()
	if n := len(moved); n > 0 {
		s.count.Add(-int64(n))
		mHandedOver.Add(uint64(n))
	}
	return moved
}

// takeRange extracts this partition's share of the key interval, appending
// the moved entries to dst.
func (p *partition) takeRange(dst []Entry, lo, hi uint64, wrapped bool) []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.keys.len() == 0 {
		return dst
	}
	// Cheap reject: partition entirely outside the interval. The key view's
	// global bounds are the first of main/stage and the last of main/stage.
	if min, max, ok := p.keyBounds(); ok && !intervalOverlaps(lo, hi, wrapped, min, max) {
		return dst
	}
	start := len(dst)
	dst, p.keys.main = cutKeyRange(dst, p.keys.main, lo, hi, wrapped)
	dst, p.keys.stage = cutKeyRange(dst, p.keys.stage, lo, hi, wrapped)
	removed := dst[start:]
	if len(removed) == 0 {
		return dst
	}
	// Sort the moved entries into key order across the two runs so the
	// return order is a pure function of the stored multiset.
	sort.Slice(removed, func(i, j int) bool { return keyLess(removed[i], removed[j]) })
	// Remove the identical multiset from the value view, compacting only
	// the value window the moved entries span.
	need := make(map[ident]int, len(removed))
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, e := range removed {
		need[identOf(e)]++
		if e.Info.Value < minV {
			minV = e.Info.Value
		}
		if e.Info.Value > maxV {
			maxV = e.Info.Value
		}
	}
	p.vals.main = filterValueWindow(p.vals.main, minV, maxV, need)
	p.vals.stage = filterValueWindow(p.vals.stage, minV, maxV, need)
	return dst
}

// keyBounds returns the smallest and largest key in the partition.
func (p *partition) keyBounds() (min, max uint64, ok bool) {
	m, st := p.keys.main, p.keys.stage
	switch {
	case len(m) == 0 && len(st) == 0:
		return 0, 0, false
	case len(m) == 0:
		return st[0].Key, st[len(st)-1].Key, true
	case len(st) == 0:
		return m[0].Key, m[len(m)-1].Key, true
	}
	min, max = m[0].Key, m[len(m)-1].Key
	if st[0].Key < min {
		min = st[0].Key
	}
	if st[len(st)-1].Key > max {
		max = st[len(st)-1].Key
	}
	return min, max, true
}

// intervalOverlaps reports whether the (possibly wrapped) key interval
// intersects [min, max].
func intervalOverlaps(lo, hi uint64, wrapped bool, min, max uint64) bool {
	if wrapped {
		return max >= lo || min <= hi
	}
	return max >= lo && min <= hi
}

// cutKeyRange removes the key interval from one sorted-by-key run,
// appending the removed entries to dst and returning the compacted run.
func cutKeyRange(dst []Entry, s []Entry, lo, hi uint64, wrapped bool) ([]Entry, []Entry) {
	if !wrapped {
		i, j := lowerKey(s, lo), upperKey(s, hi)
		if i == j {
			return dst, s
		}
		dst = append(dst, s[i:j]...)
		w := i + copy(s[i:], s[j:])
		zeroTail(s, w)
		return dst, s[:w]
	}
	// Wrapped: prefix [0, j) has keys <= hi, suffix [i, len) has keys >= lo.
	j := upperKey(s, hi)
	i := lowerKey(s, lo)
	if i < j {
		// Degenerate wrapped interval covering everything.
		i = j
	}
	if j == 0 && i == len(s) {
		return dst, s
	}
	dst = append(dst, s[:j]...)
	dst = append(dst, s[i:]...)
	w := copy(s, s[j:i])
	zeroTail(s, w)
	return dst, s[:w]
}

// filterValueWindow removes entries matching the need multiset from one
// sorted-by-value run, touching only the [lo, hi] value window.
func filterValueWindow(s []Entry, lo, hi float64, need map[ident]int) []Entry {
	from, to := lowerVal(s, lo), upperVal(s, hi)
	w := from
	for i := from; i < to; i++ {
		id := identOf(s[i])
		if c := need[id]; c > 0 {
			need[id] = c - 1
			continue
		}
		s[w] = s[i]
		w++
	}
	w += copy(s[w:], s[to:])
	zeroTail(s, w)
	return s[:w]
}

// zeroTail clears s[w:] so removed entries do not linger in backing arrays.
func zeroTail(s []Entry, w int) {
	for i := w; i < len(s); i++ {
		s[i] = Entry{}
	}
}

// TakeIf removes and returns every entry for which shouldMove reports true.
// It is the general predicate fallback (TakeRange covers the key-interval
// case in O(log n + k)); the predicate must be pure — it is evaluated once
// per entry per view. Entries are scanned partition by partition in
// attribute order.
func (s *Store) TakeIf(shouldMove func(Entry) bool) []Entry {
	var moved []Entry
	for _, p := range s.partitions() {
		p.mu.Lock()
		start := len(moved)
		moved = filterPred(&p.vals.main, shouldMove, moved, true)
		moved = filterPred(&p.vals.stage, shouldMove, moved, true)
		if len(moved) > start {
			// Mirror the removal in the key view.
			filterPred(&p.keys.main, shouldMove, nil, false)
			filterPred(&p.keys.stage, shouldMove, nil, false)
		}
		p.mu.Unlock()
	}
	if n := len(moved); n > 0 {
		s.count.Add(-int64(n))
		mHandedOver.Add(uint64(n))
	}
	return moved
}

// filterPred compacts *sp, dropping entries matching pred; dropped entries
// are appended to collect when keep is set.
func filterPred(sp *[]Entry, pred func(Entry) bool, collect []Entry, keep bool) []Entry {
	s := *sp
	w := 0
	for i := range s {
		if pred(s[i]) {
			if keep {
				collect = append(collect, s[i])
			}
			continue
		}
		s[w] = s[i]
		w++
	}
	zeroTail(s, w)
	*sp = s[:w]
	return collect
}

// Remove deletes one entry equal to e (key, attribute, value and owner all
// matching) and reports whether one was found — the targeted primitive
// replica repair uses to drop a surplus copy without scanning.
func (s *Store) Remove(e Entry) bool {
	p := s.part(e.Info.Attr)
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !cutExact(&p.keys.main, e, keyLess) && !cutExact(&p.keys.stage, e, keyLess) {
		return false
	}
	if !cutExact(&p.vals.main, e, valueLess) {
		cutExact(&p.vals.stage, e, valueLess)
	}
	s.count.Add(-1)
	return true
}

// cutExact removes the first entry equal to e from the sorted run.
func cutExact(sp *[]Entry, e Entry, less lessFn) bool {
	s := *sp
	// Lower bound: first index with !(s[i] < e).
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if less(s[h], e) {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(s) && s[i] == e {
		copy(s[i:], s[i+1:])
		s[len(s)-1] = Entry{}
		*sp = s[:len(s)-1]
		return true
	}
	return false
}

// TakeAll removes and returns everything (used by a departing node), in
// attribute order, each attribute's entries in value order.
func (s *Store) TakeAll() []Entry {
	var all []Entry
	for _, p := range s.partitions() {
		p.mu.Lock()
		all = p.vals.appendMerged(all, valueLess)
		p.vals = runs{}
		p.keys = runs{}
		p.mu.Unlock()
	}
	if n := len(all); n > 0 {
		s.count.Add(-int64(n))
		mHandedOver.Add(uint64(n))
	}
	return all
}

// Snapshot returns a copy of all entries, for tests and diagnostics, in
// attribute order, each attribute's entries in value order.
func (s *Store) Snapshot() []Entry {
	var all []Entry
	for _, p := range s.partitions() {
		p.mu.RLock()
		all = p.vals.appendMerged(all, valueLess)
		p.mu.RUnlock()
	}
	return all
}

// KeyCount is one key-group's population: how many entries the directory
// stores under a single overlay key.
type KeyCount struct {
	Key   uint64
	Count int
}

// KeyCounts returns the directory's key-groups in ascending key order with
// their entry counts. This is the granularity item migration plans at: all
// entries under one key are owned by whichever node the overlay maps that
// key to, so a shed interval can only split between key-groups, never
// inside one. A directory whose entries all share one key (SWORD's
// attribute pool) therefore reports a single indivisible group.
func (s *Store) KeyCounts() []KeyCount {
	counts := make(map[uint64]int)
	for _, p := range s.partitions() {
		p.mu.RLock()
		for i := range p.keys.main {
			counts[p.keys.main[i].Key]++
		}
		for i := range p.keys.stage {
			counts[p.keys.stage[i].Key]++
		}
		p.mu.RUnlock()
	}
	out := make([]KeyCount, 0, len(counts))
	for k, c := range counts {
		out = append(out, KeyCount{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
