package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// FuzzQueueOrder drives one shard with a byte script of schedules, timer
// re-arms and stops, sends and runs, with delays from zero to past the
// largest Duration, and diffs every run's firings, clock and pending
// count against a model that keeps its events in a slice and sorts it.
// An odd first byte queues spillAt+1 filler events first, spread over
// three ring spans, so the script runs against a spilled queue: the side
// heap, the sorted run, the ring's buckets and the overflow heap.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 10, 2, 4, 20})
	f.Add([]byte{1, 0, 7, 21, 6, 1, 2, 22, 5, 4, 4, 3, 15, 4, 31})
	f.Add([]byte{1, 1, 4, 6, 12, 26, 13, 4, 250, 4, 7, 0, 200, 4, 255})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 1, 20, 21, 18, 4, 90, 4, 90, 4, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		q := newQueueRig()
		if data[0]&1 == 1 {
			for i := 0; i <= spillAt; i++ {
				q.schedule(q.filler, time.Duration(i)*3*calReach/spillAt)
			}
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		next()
		for len(data) > 0 {
			op := next()
			c, k, d := int(op/5)%fuzzCtxs, int(op/20)%2, fuzzDelay(next())
			switch op % 5 {
			case 0:
				q.schedule(c, d)
			case 1:
				q.reset(c, k, d)
			case 2:
				q.stop(c, k)
			case 3:
				q.send(c, (c+1)%fuzzCtxs, d)
			case 4:
				q.run(t, q.p.Now()+min(d, maxTime-q.p.Now()))
			}
		}
		q.run(t, maxTime)
		if n := q.p.Pending(); n != 0 {
			t.Fatalf("%d events pending after a run to the largest Duration", n)
		}
	})
}

const fuzzCtxs = 3

// fuzzDelay decodes a delay: the low three bits pick a scale, from zero
// through bucket-sized steps and the ring's reach to overflow distances
// and saturating ones.
func fuzzDelay(b byte) time.Duration {
	n := time.Duration(b >> 3)
	switch b & 7 {
	case 0:
		return 0
	case 1:
		return n * 37 * time.Microsecond
	case 2:
		return n * time.Millisecond
	case 3:
		return n * 100 * time.Millisecond
	case 4:
		return calReach - time.Second + n*100*time.Millisecond
	case 5:
		return n * 10 * time.Second
	case 6:
		return maxTime - n*time.Hour
	}
	return maxTime
}

// queueRig is one shard and the sorted-slice model, driven in lockstep.
type queueRig struct {
	p      *Parallel
	ctxs   [fuzzCtxs + 1]*Ctx // the last one holds the fillers
	filler int
	timers [fuzzCtxs][2]Timer
	arming [fuzzCtxs][2]int // id of each timer's live arming
	fired  []int

	// The model.
	now, lastAt time.Duration
	seq         [fuzzCtxs + 1]uint64
	queue       []fuzzEvent
	dead        [fuzzCtxs][2]*bool
	want        []int
	ids         int
}

type fuzzEvent struct {
	at   time.Duration
	src  ContextKey
	seq  uint64
	id   int
	dead *bool
}

func newQueueRig() *queueRig {
	q := &queueRig{p: New(1), filler: fuzzCtxs}
	for i := range q.ctxs {
		q.ctxs[i] = q.p.Context(Key2D(int16(i+1), 1))
	}
	for c := range q.timers {
		for k := range q.timers[c] {
			c, k := c, k
			q.timers[c][k].Init(q.ctxs[c], func() { q.fired = append(q.fired, q.arming[c][k]) })
		}
	}
	return q
}

// queue adds an event scheduled by ctx after d to the model and returns
// its id and dead flag.
func (q *queueRig) queued(ctx int, d time.Duration) (int, *bool) {
	q.ids++
	dead := new(bool)
	at := q.now + min(max(d, 0), maxTime-q.now)
	q.queue = append(q.queue, fuzzEvent{at: at, src: q.ctxs[ctx].Key(), seq: q.seq[ctx], id: q.ids, dead: dead})
	q.seq[ctx]++
	return q.ids, dead
}

func (q *queueRig) schedule(ctx int, d time.Duration) {
	id, _ := q.queued(ctx, d)
	q.ctxs[ctx].Schedule(d, func() { q.fired = append(q.fired, id) })
}

func (q *queueRig) send(from, to int, d time.Duration) {
	id, _ := q.queued(from, d)
	q.ctxs[from].Send(q.ctxs[to], d, func() { q.fired = append(q.fired, id) })
}

func (q *queueRig) reset(ctx, k int, d time.Duration) {
	if q.dead[ctx][k] != nil {
		*q.dead[ctx][k] = true
	}
	q.arming[ctx][k], q.dead[ctx][k] = q.queued(ctx, d)
	q.timers[ctx][k].Reset(d)
}

func (q *queueRig) stop(ctx, k int) {
	if q.dead[ctx][k] != nil {
		*q.dead[ctx][k] = true
	}
	q.timers[ctx][k].Stop()
}

// run runs both to until and compares what fired, the clock and the
// pending count.
func (q *queueRig) run(t *testing.T, until time.Duration) {
	begin := q.now
	until = max(until, q.now)
	slices.SortFunc(q.queue, func(a, b fuzzEvent) int {
		switch {
		case a.at != b.at:
			return cmp.Compare(a.at, b.at)
		case a.src != b.src:
			return cmp.Compare(a.src, b.src)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	rest := q.queue[:0]
	for _, e := range q.queue {
		switch {
		case *e.dead:
		case e.at <= until:
			*e.dead = true
			q.want = append(q.want, e.id)
			q.lastAt = e.at
		default:
			rest = append(rest, e)
		}
	}
	q.queue = rest
	if len(rest) > 0 {
		q.now = until
	} else {
		q.now = max(begin, q.lastAt)
	}

	if err := q.p.Run(until); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q.fired, q.want) {
		t.Fatalf("Run(%v) fired\n got %v\nwant %v", until, q.fired, q.want)
	}
	if q.p.Now() != q.now || q.p.Pending() != len(rest) {
		t.Fatalf("after Run(%v): clock %v, %d pending; the model has %v, %d", until, q.p.Now(), q.p.Pending(), q.now, len(rest))
	}
}

// TestSortRunOrders holds the bucket sort to the standard library's, and
// to the order the side heap compares by, on the shapes a bucket takes:
// sorted (no sort), a same-instant cluster with strays scattered through
// it, reversed and random.
func TestSortRunOrders(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ev := new(event)
	cluster := func(n int) []entry {
		d := make([]entry, n)
		for i := range d {
			d[i] = entry{at: 4 << 20, src: ContextKey(i + 1), ev: ev}
		}
		return d
	}
	stray := func() entry {
		return entry{at: time.Duration(r.Int63n(1 << bucketShift)), src: ContextKey(r.Int63n(1 << 20)), seq: r.Uint64(), ev: ev}
	}
	scatter := func(d []entry, n int) []entry {
		for i := 0; i < n; i++ {
			d = slices.Insert(d, r.Intn(len(d)+1), stray())
		}
		return d
	}
	random := func(n int) []entry {
		d := make([]entry, n)
		for i := range d {
			d[i] = stray()
		}
		return d
	}
	reversed := func(d []entry) []entry {
		slices.Reverse(d)
		return d
	}
	cases := map[string][]entry{
		"empty":          nil,
		"one":            cluster(1),
		"sorted":         cluster(5000),
		"cluster+strays": scatter(cluster(20000), 400),
		"reversed":       reversed(cluster(3000)),
		"random":         random(3000),
	}
	for name, d := range cases {
		want := slices.Clone(d)
		slices.SortFunc(want, cmpEntry)
		q := &eventQueue{run: slices.Clone(d)}
		q.sortRun()
		if !slices.Equal(q.run, want) {
			t.Errorf("%s: sortRun's order differs from slices.SortFunc's", name)
		}
		for i := 1; i < len(q.run); i++ {
			if q.run[i].before(&q.run[i-1]) {
				t.Fatalf("%s: run[%d] sorts before run[%d]", name, i, i-1)
			}
		}
	}
}

// BenchmarkQueueFieldShape times the queue under field-40k's shape: 40k
// contexts whose wake timers all fire at one instant every 250 ms, each
// beside a beacon timer re-armed every 2 s with ±100 ms of jitter. An
// iteration is one 250 ms slice, after two virtual seconds of warm-up
// that spill the queue and fill its chunk pool; the metric is ns/event.
func BenchmarkQueueFieldShape(b *testing.B) {
	const motes = 40000
	p := New(1)
	wakes, beacons := make([]Timer, motes), make([]Timer, motes)
	for i := range wakes {
		c := p.Context(Key2D(int16(i%200), int16(i/200)))
		w, bc := &wakes[i], &beacons[i]
		w.Init(c, func() { w.Reset(250 * time.Millisecond) })
		bc.Init(c, func() { bc.Reset(1900*time.Millisecond + time.Duration(c.Rand().Int63n(int64(200*time.Millisecond)))) })
		w.Reset(250 * time.Millisecond)
		bc.Reset(time.Duration(c.Rand().Int63n(int64(2 * time.Second))))
	}
	if err := p.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	before := p.Executed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Run(p.Now() + 250*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(p.Executed()-before), "ns/event")
}
