package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// The kernel order oracle. One seeded script drives both the real kernel
// and a model that keeps every queued event in a plain slice and finds the
// next one with sort.SliceStable over (at, src, seq). What an event does
// when it fires — schedule, defer a local step, send to another context,
// re-arm or stop a timer; a world event also reaches into any context and
// schedules or cancels other world events — is a pure function of the
// event's id, so the two runs can only agree if the kernel fires exactly
// the oracle's events in exactly the oracle's order: a stopped timer
// never, a re-armed one once at its last deadline, nothing from a
// recycled Event.

const (
	oracleCtxs   = 6
	oracleTimers = 2
	oracleWindow = 5 * time.Millisecond
	oracleDepth  = 7
	worldCtx     = -1
)

// sched is what a firing event may do, implemented by the kernel kernelRig
// and by the model.
type sched interface {
	schedule(ctx int, d time.Duration, id uint64)
	scheduleLocal(ctx int, d time.Duration, id uint64)
	send(from, to int, d time.Duration, id uint64)
	timerReset(ctx, k int, d time.Duration, id uint64)
	timerStop(ctx, k int)
	worldAt(after time.Duration, id uint64)
	worldCancel(nth int)
}

// act performs the children of event id firing on ctx (worldCtx for a
// world event) at generation depth. Child ids are derived from the
// parent's, so they do not depend on the order events fire in.
func act(s sched, seed int64, ctx int, id uint64, depth int) {
	if depth >= oracleDepth {
		return
	}
	r := rand.New(rand.NewSource(seed ^ int64(id*0x9e3779b97f4a7c15)))
	ms := func(n int) time.Duration { return time.Duration(r.Intn(n)) * time.Millisecond }
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		child := id*16 + uint64(i) + 1
		if ctx == worldCtx {
			c := r.Intn(oracleCtxs)
			switch r.Intn(6) {
			case 0:
				s.schedule(c, ms(3), child) // including the world event's own instant
			case 1:
				s.timerReset(c, r.Intn(oracleTimers), ms(20), child)
			case 2:
				s.timerStop(c, r.Intn(oracleTimers))
			case 3, 4:
				s.worldAt(ms(30), child)
			case 5:
				s.worldCancel(r.Intn(64))
			}
			continue
		}
		switch r.Intn(8) {
		case 0, 1:
			s.schedule(ctx, ms(12), child)
		case 2:
			s.scheduleLocal(ctx, ms(4), child)
		case 3, 4:
			s.send(ctx, r.Intn(oracleCtxs), oracleWindow+ms(10), child)
		case 5, 6:
			s.timerReset(ctx, r.Intn(oracleTimers), ms(15), child)
		case 7:
			s.timerStop(ctx, r.Intn(oracleTimers))
		}
	}
}

func oracleKey(ctx int) ContextKey { return Key2D(int16(ctx+1), 1) }

// depthOf recovers an event's generation from its id (ids are base-16
// paths from the roots 1..15).
func depthOf(id uint64) int {
	d := 0
	for ; id >= 16; id = (id - 1) / 16 {
		d++
	}
	return d
}

// --- the model ----------------------------------------------------------

type modelEvent struct {
	at   time.Duration
	src  ContextKey
	seq  uint64
	dst  int
	id   uint64
	dead *bool // shared with whoever may stop it
}

type model struct {
	seed     int64
	now      time.Duration
	seq      [oracleCtxs]uint64
	worldSeq uint64
	queue    []modelEvent
	timers   [oracleCtxs][oracleTimers]*bool // the live arming's dead flag
	worlds   []*bool
	fired    [oracleCtxs + 1][]uint64 // per target context; last: the world lane
	order    []uint64
}

func (m *model) push(ctx, dst int, d time.Duration, id uint64) *bool {
	dead := new(bool)
	m.queue = append(m.queue, modelEvent{at: m.now + d, src: oracleKey(ctx), seq: m.seq[ctx], dst: dst, id: id, dead: dead})
	m.seq[ctx]++
	return dead
}

func (m *model) schedule(ctx int, d time.Duration, id uint64)      { m.push(ctx, ctx, d, id) }
func (m *model) scheduleLocal(ctx int, d time.Duration, id uint64) { m.push(ctx, ctx, d, id) }
func (m *model) send(from, to int, d time.Duration, id uint64)     { m.push(from, to, d, id) }

func (m *model) timerReset(ctx, k int, d time.Duration, id uint64) {
	m.timerStop(ctx, k)
	m.timers[ctx][k] = m.push(ctx, ctx, d, id)
}

func (m *model) timerStop(ctx, k int) {
	if dead := m.timers[ctx][k]; dead != nil {
		*dead = true
	}
}

func (m *model) worldAt(after time.Duration, id uint64) {
	dead := new(bool)
	m.queue = append(m.queue, modelEvent{at: m.now + after, src: WorldKey, seq: m.worldSeq, dst: worldCtx, id: id, dead: dead})
	m.worldSeq++
	m.worlds = append(m.worlds, dead)
}

func (m *model) worldCancel(nth int) {
	if nth < len(m.worlds) {
		*m.worlds[nth] = true
	}
}

func (m *model) run() {
	for {
		live := m.queue[:0]
		for _, e := range m.queue {
			if !*e.dead {
				live = append(live, e)
			}
		}
		m.queue = live
		if len(m.queue) == 0 {
			return
		}
		sort.SliceStable(m.queue, func(i, j int) bool {
			a, b := m.queue[i], m.queue[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		e := m.queue[0]
		m.queue = m.queue[1:]
		*e.dead = true // fired: a later stop of this arming is a no-op
		m.now = e.at
		lane := e.dst
		if lane == worldCtx {
			lane = oracleCtxs
		}
		m.fired[lane] = append(m.fired[lane], e.id)
		m.order = append(m.order, e.id)
		act(m, m.seed, e.dst, e.id, depthOf(e.id))
	}
}

// --- the kernel kernelRig -------------------------------------------------

type kernelRig struct {
	seed   int64
	ex     Executor
	ctxs   [oracleCtxs]*Ctx
	timers [oracleCtxs][oracleTimers]Timer
	arming [oracleCtxs][oracleTimers]uint64 // id of each timer's current arming
	worlds []*Event
	fired  [oracleCtxs + 1][]uint64
	order  *[]uint64 // global firing order; nil where only each context's is defined
}

func newKernelRig(seed int64, ex Executor, global bool) *kernelRig {
	h := &kernelRig{seed: seed, ex: ex}
	if global {
		h.order = new([]uint64)
	}
	for i := range h.ctxs {
		h.ctxs[i] = ex.Context(oracleKey(i))
	}
	for c := range h.timers {
		for k := range h.timers[c] {
			c, k := c, k
			h.timers[c][k].Init(h.ctxs[c], func() { h.fire(c, h.arming[c][k]) })
		}
	}
	return h
}

func (h *kernelRig) fire(ctx int, id uint64) {
	lane := ctx
	if ctx == worldCtx {
		lane = oracleCtxs
	}
	h.fired[lane] = append(h.fired[lane], id)
	if h.order != nil {
		*h.order = append(*h.order, id)
	}
	act(h, h.seed, ctx, id, depthOf(id))
}

func (h *kernelRig) schedule(ctx int, d time.Duration, id uint64) {
	h.ctxs[ctx].Schedule(d, func() { h.fire(ctx, id) })
}

func (h *kernelRig) scheduleLocal(ctx int, d time.Duration, id uint64) {
	h.ctxs[ctx].ScheduleLocal(d, func() { h.fire(ctx, id) })
}

func (h *kernelRig) send(from, to int, d time.Duration, id uint64) {
	h.ctxs[from].Send(h.ctxs[to], d, func() { h.fire(to, id) })
}

func (h *kernelRig) timerReset(ctx, k int, d time.Duration, id uint64) {
	h.arming[ctx][k] = id
	h.timers[ctx][k].Reset(d)
}

func (h *kernelRig) timerStop(ctx, k int) { h.timers[ctx][k].Stop() }

func (h *kernelRig) worldAt(after time.Duration, id uint64) {
	h.worlds = append(h.worlds, h.ex.ScheduleWorldAt(h.ex.Now()+after, func() { h.fire(worldCtx, id) }))
}

func (h *kernelRig) worldCancel(nth int) {
	if nth < len(h.worlds) {
		h.worlds[nth].Cancel()
	}
}

// roots seeds a run from the host: a few events per context, an armed
// timer, and the first world events.
func roots(s sched) {
	id := uint64(1)
	for c := 0; c < oracleCtxs; c++ {
		s.schedule(c, time.Duration(c)*time.Millisecond, id)
		id++
	}
	s.timerReset(0, 0, 3*time.Millisecond, id)
	s.worldAt(7*time.Millisecond, id+1)
}

// brutePending counts live entries the way Pending used to: by walking.
func brutePending(shards ...*shard) int {
	n := 0
	for _, sh := range shards {
		for i := range sh.queue {
			if !sh.queue[i].stale() {
				n++
			}
		}
		n += len(sh.inbox)
	}
	return n
}

func TestKernelOrderOracle(t *testing.T) {
	type setup struct {
		name   string
		global bool
		build  func(seed int64) (Executor, []*shard)
	}
	setups := []setup{
		{"sequential", true, func(seed int64) (Executor, []*shard) {
			s := New(seed)
			return s, []*shard{s.sh}
		}},
		// With a lookahead a context runs ahead of the others inside the
		// window, as it does on its own shard under Parallel: each
		// context's schedule is the oracle's, the global interleaving is
		// not defined.
		{"sequential+lookahead", false, func(seed int64) (Executor, []*shard) {
			s := New(seed)
			s.SetLookahead(oracleWindow)
			return s, []*shard{s.sh}
		}},
		{"parallel-2", false, func(seed int64) (Executor, []*shard) {
			p := NewParallel(seed, 2, oracleWindow, func(k ContextKey) int { return int(k) % 2 })
			return p, append([]*shard{p.world.shard}, p.shards...)
		}},
	}
	for _, su := range setups {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", su.name, seed), func(t *testing.T) {
				m := &model{seed: seed}
				roots(m)
				m.run()
				if len(m.order) < 50 {
					t.Fatalf("script fired only %d events: too small to mean anything", len(m.order))
				}

				ex, shards := su.build(seed)
				h := newKernelRig(seed, ex, su.global)
				roots(h)
				// Run in slices so the live count is checked mid-run, with
				// stale entries and (under Parallel) mailboxes in play.
				for ex.Pending() > 0 {
					if err := ex.Run(ex.Now() + 9*time.Millisecond); err != nil {
						t.Fatal(err)
					}
					if got, want := ex.Pending(), brutePending(shards...); got != want {
						t.Fatalf("at %v: Pending() = %d, a walk of the queues finds %d live", ex.Now(), got, want)
					}
				}
				if h.order != nil && fmt.Sprint(*h.order) != fmt.Sprint(m.order) {
					t.Fatalf("fired order differs from the sort.SliceStable oracle:\n got %v\nwant %v", *h.order, m.order)
				}
				for lane := range m.fired {
					if fmt.Sprint(h.fired[lane]) != fmt.Sprint(m.fired[lane]) {
						t.Fatalf("lane %d fired\n got %v\nwant %v", lane, h.fired[lane], m.fired[lane])
					}
				}
				if got, want := ex.Executed(), uint64(len(m.order)); got != want {
					t.Fatalf("Executed() = %d, oracle fired %d", got, want)
				}
			})
		}
	}
}

// TestTimerFiresOnceAtLastDeadline pins the two timer rules by hand, apart
// from the random script.
func TestTimerFiresOnceAtLastDeadline(t *testing.T) {
	s := New(1)
	var at []time.Duration
	var tm Timer
	tm.Init(s.Context(Key2D(1, 1)), func() { at = append(at, s.Now()) })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(30 * time.Millisecond)
	tm.Reset(20 * time.Millisecond)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d with one timer armed three times, want 1", got)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(at) != 1 || at[0] != 20*time.Millisecond {
		t.Fatalf("fired at %v, want once at 20ms", at)
	}
	// Re-armed from its own callback, then stopped: never again.
	tm.Reset(5 * time.Millisecond)
	tm.Stop()
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(at) != 1 {
		t.Fatalf("a stopped timer fired: %v", at)
	}
}

// TestKernelSteadyStateAllocatesNothing pins the two cycles the footprint
// work made allocation-free: a timer re-armed and fired, and a Send
// delivered through the pooled event.
func TestKernelSteadyStateAllocatesNothing(t *testing.T) {
	s := New(1)
	a, b := s.Context(Key2D(1, 1)), s.Context(Key2D(2, 1))
	fired := 0
	count := func() { fired++ }
	var tm Timer
	tm.Init(a, count)
	cycle := func() {
		tm.Reset(time.Millisecond)
		a.Send(b, 2*time.Millisecond, count)
		if err := s.Run(s.Now() + 3*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the heap slice, the due lists and the free list
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("timer reset→fire plus Send→deliver allocates %.1f objects per cycle, want 0", avg)
	}
	if fired != 2*202 {
		t.Fatalf("fired %d callbacks, want %d", fired, 2*202)
	}
}

// TestHeapEntryIsHalfACacheLine pins the layouts the kernel's memory
// behaviour rests on: two heap entries per cache line (so the four
// children of a heap node span two), compared without a dereference, and
// an Event small enough to embed in whatever it times.
func TestHeapEntryIsHalfACacheLine(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(Timer{}); got > 32 {
		t.Errorf("unsafe.Sizeof(Timer{}) = %d, want <= 32", got)
	}
}
