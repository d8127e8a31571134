package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// A span is one call the harness made into a layer. Spans are recorded
// only by the generator goroutine, in memory, and written out when the
// run ends; Parent is the index of the enclosing span (-1 at the root),
// so a span's self time is its duration minus its children's.
type span struct {
	Name   string
	Start  int64 // ns since the tracer was created
	End    int64
	Parent int32
}

// tracer records spans. A nil tracer is tracing off: begin and end cost
// one nil check, which is all the untraced run pays.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
	cur   int32
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now(), cur: -1}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.cur = s.Parent
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count int
	Total time.Duration
	Self  time.Duration
	durs  []time.Duration
}

// summarize folds the spans lying inside [from, to] by name, computing
// self time as duration minus the part covered by child spans.
func (t *tracer) summarize(from, to int64) map[string]*spanStat {
	out := make(map[string]*spanStat)
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Start < from || s.End > to {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - time.Duration(child[i])
		st.durs = append(st.durs, d)
	}
	return out
}

// quantile returns the q-quantile of the span durations in the given
// unit (nearest rank), or 0 when the span never occurred.
func (s *spanStat) quantile(q float64, unit time.Duration) float64 {
	if s == nil || len(s.durs) == 0 {
		return 0
	}
	d := append([]time.Duration(nil), s.durs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[rank(len(d), q)]) / float64(unit)
}

func (s *spanStat) total() time.Duration {
	if s == nil {
		return 0
	}
	return s.Total
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// writeJSONL writes one span per line: run id, index, parent index,
// name, start and end in ns since the traced trial began.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Run    string `json:"run"`
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for i, s := range t.spans {
		if err := enc.Encode(line{t.runID, i, s.Parent, s.Name, s.Start, s.End}); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// hooks is what the harness learns through core.Trace. Counters are
// atomic and the latency samples sit behind a mutex because hooks run on
// shard goroutines when a deployment has more than one worker.
type hooks struct {
	arrived, halted, died                atomic.Uint64
	migStarted, migOK, migFail           atomic.Uint64
	remoteOK, remoteFail                 atomic.Uint64
	tupleOut, reaction                   atomic.Uint64
	nodeDied, nodeRecovered, nodeMoved   atomic.Uint64
	exhausted, replicaSynced, tupleRecov atomic.Uint64

	mu       sync.Mutex
	migStart map[migKey]time.Duration
	migHopMs []float64 // virtual ms, successful hops only
	rttMs    []float64 // virtual ms, successful remote ops only
}

type migKey struct {
	node topology.Location
	id   uint16
}

// install wires the hooks into a deployment's trace table. The untraced
// run installs only MigrationDone and RemoteDone, which ok_frac counts;
// all adds the latency samples and every other hook except
// InstrExecuted.
func (h *hooks) install(d *core.Deployment, all bool) {
	tr := d.Trace
	tr.MigrationDone = func(node topology.Location, id uint16, _ wire.MigKind, _ topology.Location, ok bool) {
		if !ok {
			h.migFail.Add(1)
			return
		}
		h.migOK.Add(1)
		if !all {
			return
		}
		now := d.NowAt(node)
		h.mu.Lock()
		if start, seen := h.migStart[migKey{node, id}]; seen {
			h.migHopMs = append(h.migHopMs, float64(now-start)/float64(time.Millisecond))
			delete(h.migStart, migKey{node, id})
		}
		h.mu.Unlock()
	}
	tr.RemoteDone = func(_ topology.Location, _ uint16, _ vm.RemoteKind, _ topology.Location, ok bool, elapsed time.Duration) {
		if !ok {
			h.remoteFail.Add(1)
			return
		}
		h.remoteOK.Add(1)
		if !all {
			return
		}
		h.mu.Lock()
		h.rttMs = append(h.rttMs, float64(elapsed)/float64(time.Millisecond))
		h.mu.Unlock()
	}
	if !all {
		return
	}
	if h.migStart == nil {
		h.migStart = make(map[migKey]time.Duration)
	}
	tr.MigrationStarted = func(node topology.Location, id uint16, _ wire.MigKind, _ topology.Location) {
		h.migStarted.Add(1)
		now := d.NowAt(node)
		h.mu.Lock()
		h.migStart[migKey{node, id}] = now
		h.mu.Unlock()
	}
	tr.AgentArrived = func(topology.Location, uint16, wire.MigKind, topology.Location) { h.arrived.Add(1) }
	tr.AgentHalted = func(topology.Location, uint16) { h.halted.Add(1) }
	tr.AgentDied = func(topology.Location, uint16, error) { h.died.Add(1) }
	tr.TupleOut = func(topology.Location, tuplespace.Tuple) { h.tupleOut.Add(1) }
	tr.ReactionFired = func(topology.Location, uint16, tuplespace.Tuple) { h.reaction.Add(1) }
	tr.NodeDied = func(topology.Location, core.DownCause) { h.nodeDied.Add(1) }
	tr.NodeRecovered = func(topology.Location) { h.nodeRecovered.Add(1) }
	tr.NodeMoved = func(topology.Location, topology.Location) { h.nodeMoved.Add(1) }
	tr.EnergyExhausted = func(topology.Location, float64) { h.exhausted.Add(1) }
	tr.ReplicaSynced = func(topology.Location, topology.Location, int, int) { h.replicaSynced.Add(1) }
	tr.TupleRecovered = func(topology.Location, tuplespace.Tuple) { h.tupleRecov.Add(1) }
}

// quantileOf is the nearest-rank q-quantile of xs (0 when empty).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}
