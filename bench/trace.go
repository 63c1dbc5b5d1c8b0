package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. The traced pass
// sends each op through several substitutions — the real gateway, a gateway
// that replays recorded answers, the system called in process, the
// primitives the system is built from — and files each under the one
// before it that contains its work:
//
//	rtt_full (transport) ── rtt_replay (transport)
//	                     └─ inproc (emulate, when hop latency is emulated)
//	                         └─ system (core)
//	                             ├─ lookup (cycloid)   ├─ match (directory)
//	                             ├─ next_node (cycloid) └─ fabric_op (routing)
//
// The substitutions run one after another, so a child's interval does not
// lie inside its parent's; what nests is the work, and self time is taken
// from durations: a span's own minus its children's.
type span struct {
	Op     int    `json:"op_id"`  // shared by every span of one op
	ID     int    `json:"span"`   // 1-based, unique within the file
	Parent int    `json:"parent"` // 0 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // calls into the layer the span covers, when more than one
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add files one span and returns its ID for children to name as parent.
func (r *recorder) add(op, parent int, layer, name string, start, end time.Time, calls int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Op: op, ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Calls: calls,
	})
	return id
}

// selfTimes returns each span's duration minus its children's, by span ID.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
