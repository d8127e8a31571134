// Package mate implements a Maté-style capsule-flooding virtual machine
// (Levis & Culler, ASPLOS'02 — the paper's reference [20] and its explicit
// point of comparison in §5).
//
// In Maté, an application is divided into capsules of at most 24
// instructions. Capsules carry version numbers and are flooded virally:
// every node periodically advertises the versions it holds, re-broadcasts
// capsules that neighbors lack, and installs any newer capsule it hears.
// The consequences the paper calls out — a user cannot control where an
// application is installed, the network runs a single application at a
// time, and any behavior change means re-flooding code to every node — are
// exactly what the E9 experiment quantifies against Agilla's targeted
// agent injection.
//
// The capsule interpreter reuses the Agilla VM core (historically accurate:
// Agilla's ISA is based on Maté's, §3.4) with tuple space and migration
// instructions disabled.
package mate

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
)

// MaxCapsuleCode bounds capsule code: 24 single-byte instructions in Maté;
// our encoding spends up to 3 bytes on push immediates, so the byte budget
// is 3×24.
const MaxCapsuleCode = 72

// NumCapsuleTypes is how many capsule slots each node holds (Maté has
// clock, send, receive, and subroutine capsules).
const NumCapsuleTypes = 4

// Capsule types.
const (
	CapsuleClock uint8 = 0 // runs on the clock timer
	CapsuleSub0  uint8 = 1
	CapsuleSub1  uint8 = 2
	CapsuleSub2  uint8 = 3
)

// ErrCapsuleTooBig is returned for over-long capsule code.
var ErrCapsuleTooBig = errors.New("mate: capsule exceeds 24 instructions")

// Capsule is one versioned code fragment.
type Capsule struct {
	Type    uint8
	Version uint16
	Code    []byte
}

// Frame kinds on the Maté medium.
const (
	kindSummary radio.FrameKind = 21 // version advertisement
	kindCapsule radio.FrameKind = 22 // full capsule broadcast
)

// Config tunes the Maté network.
type Config struct {
	// AdvertiseEvery is the version-summary beacon period.
	AdvertiseEvery time.Duration
	// ClockEvery is the clock-capsule execution period.
	ClockEvery time.Duration
	// MaxRunLen bounds instructions per capsule activation.
	MaxRunLen int
}

func (c Config) withDefaults() Config {
	if c.AdvertiseEvery <= 0 {
		c.AdvertiseEvery = 2 * time.Second
	}
	if c.ClockEvery <= 0 {
		c.ClockEvery = 10 * time.Second
	}
	if c.MaxRunLen <= 0 {
		c.MaxRunLen = 200
	}
	return c
}

// Node is one mote running the Maté VM.
type Node struct {
	sim     *sim.Ctx // the mote's own context, the one its frames arrive on
	medium  *radio.Medium
	port    *radio.Port // the mote's attachment, which its frames go out through
	loc     topology.Location
	cfg     Config
	board   *sensor.Board
	caps    [NumCapsuleTypes]Capsule
	led     int16
	stopped bool
	adv     sim.Timer // the version-summary beacon
	clock   sim.Timer // the clock capsule's timer

	// Installs counts capsule installations (including self-injection).
	Installs uint64
	// Runs counts clock-capsule activations.
	Runs uint64
	// SentTuples collects what the capsule program "sends" via out-style
	// instructions; Maté sends readings to the base station, which we
	// model as appending to this slice.
	SentTuples []tuplespace.Tuple
}

// NewNode attaches a Maté mote to the medium; it schedules, draws and
// reads time through s, which must be the context keyed to loc
// (sim.Key2D): the one the medium delivers the mote's frames on.
func NewNode(s *sim.Ctx, medium *radio.Medium, loc topology.Location, board *sensor.Board, cfg Config) (*Node, error) {
	n := &Node{sim: s, medium: medium, loc: loc, cfg: cfg.withDefaults(), board: board}
	if err := medium.Attach(loc, n); err != nil {
		return nil, err
	}
	n.port = medium.Port(loc)
	n.adv.Init(s, n.advertiseTick)
	n.clock.Init(s, n.clockTick)
	return n, nil
}

// Start begins advertising and clock execution.
func (n *Node) Start() {
	offset := time.Duration(n.sim.Rand().Int63n(int64(n.cfg.AdvertiseEvery)))
	n.adv.Reset(offset)
	n.clock.Reset(offset + n.cfg.ClockEvery)
}

// Stop silences the node.
func (n *Node) Stop() {
	n.stopped = true
	n.adv.Stop()
	n.clock.Stop()
	n.medium.Detach(n.loc)
}

// Loc returns the node's location.
func (n *Node) Loc() topology.Location { return n.loc }

// Version returns the installed version of a capsule type.
func (n *Node) Version(typ uint8) uint16 {
	if typ >= NumCapsuleTypes {
		return 0
	}
	return n.caps[typ].Version
}

// LED returns the last putled value, for observing capsule effects.
func (n *Node) LED() int16 { return n.led }

// Install loads a capsule directly (the base station's injection path).
// Newer versions replace older ones; stale versions are ignored.
func (n *Node) Install(c Capsule) error {
	if len(c.Code) > MaxCapsuleCode {
		return fmt.Errorf("%w: %d bytes", ErrCapsuleTooBig, len(c.Code))
	}
	if c.Type >= NumCapsuleTypes {
		return fmt.Errorf("mate: bad capsule type %d", c.Type)
	}
	if c.Version <= n.caps[c.Type].Version && n.caps[c.Type].Code != nil {
		return nil
	}
	c.Code = append([]byte(nil), c.Code...)
	n.caps[c.Type] = c
	n.Installs++
	return nil
}

func (n *Node) advertiseTick() {
	n.medium.SendFrom(n.port, radio.Frame{
		Src: n.loc, Dst: radio.Broadcast, Kind: kindSummary,
		Payload: n.encodeSummary(),
	})
	n.adv.Reset(n.cfg.AdvertiseEvery)
}

func (n *Node) encodeSummary() []byte {
	b := make([]byte, 1+2*NumCapsuleTypes)
	b[0] = NumCapsuleTypes
	for i := 0; i < NumCapsuleTypes; i++ {
		b[1+2*i] = byte(n.caps[i].Version >> 8)
		b[2+2*i] = byte(n.caps[i].Version)
	}
	return b
}

// ReceiveFrame implements radio.Receiver.
func (n *Node) ReceiveFrame(f radio.Frame) {
	if n.stopped {
		return
	}
	switch f.Kind {
	case kindSummary:
		n.onSummary(f.Payload)
	case kindCapsule:
		n.onCapsule(f.Payload)
	}
}

// onSummary compares a neighbor's versions with ours and re-broadcasts any
// capsule the neighbor lacks — the viral half of Maté's dissemination.
func (n *Node) onSummary(p []byte) {
	if len(p) < 1+2*NumCapsuleTypes || p[0] != NumCapsuleTypes {
		return
	}
	for i := 0; i < NumCapsuleTypes; i++ {
		theirs := uint16(p[1+2*i])<<8 | uint16(p[2+2*i])
		if n.caps[i].Code != nil && theirs < n.caps[i].Version {
			n.broadcastCapsule(uint8(i))
		}
	}
}

func (n *Node) broadcastCapsule(typ uint8) {
	c := n.caps[typ]
	b := make([]byte, 4, 4+len(c.Code))
	b[0] = c.Type
	b[1] = byte(c.Version >> 8)
	b[2] = byte(c.Version)
	b[3] = byte(len(c.Code))
	b = append(b, c.Code...)
	n.medium.SendFrom(n.port, radio.Frame{Src: n.loc, Dst: radio.Broadcast, Kind: kindCapsule, Payload: b})
}

func (n *Node) onCapsule(p []byte) {
	if len(p) < 4 {
		return
	}
	c := Capsule{Type: p[0], Version: uint16(p[1])<<8 | uint16(p[2])}
	codeLen := int(p[3])
	if len(p) < 4+codeLen {
		return
	}
	c.Code = p[4 : 4+codeLen]
	if c.Type >= NumCapsuleTypes || c.Version <= n.caps[c.Type].Version {
		return
	}
	_ = n.Install(c)
}

// clockTick runs the clock capsule, as Maté's timer context does.
func (n *Node) clockTick() {
	if c := n.caps[CapsuleClock]; c.Code != nil {
		n.runCapsule(c)
	}
	n.clock.Reset(n.cfg.ClockEvery)
}

// runCapsule interprets one capsule activation to completion (halt, error,
// or the run-length bound).
func (n *Node) runCapsule(c Capsule) {
	n.Runs++
	a := vm.NewAgent(0, c.Code)
	h := &mateHost{node: n}
	for i := 0; i < n.cfg.MaxRunLen; i++ {
		out := vm.Step(a, h)
		switch out.Effect {
		case vm.EffectNone:
			continue
		case vm.EffectHalt, vm.EffectError:
			return
		case vm.EffectSleep, vm.EffectWait, vm.EffectBlocked:
			return // no blocking inside a capsule activation
		case vm.EffectMigrate, vm.EffectRemote:
			return // Maté has no migration or remote tuple spaces
		}
	}
}

// mateHost adapts a Maté node to the VM host interface. Tuple space
// instructions degrade to a send-to-base model: out appends to SentTuples;
// probes always miss. Maté programs have no acquaintance list.
type mateHost struct {
	node    *Node
	scratch vm.Scratch // one activation's tuple scratch
}

func (h *mateHost) Loc() topology.Location { return h.node.loc }

func (h *mateHost) RandInt16(mod int16) int16 {
	if mod <= 0 {
		return 0
	}
	return int16(h.node.sim.Rand().Int63n(int64(mod)))
}

func (h *mateHost) NumNeighbors() int                      { return 0 }
func (h *mateHost) Neighbor(int) (topology.Location, bool) { return topology.Location{}, false }
func (h *mateHost) SetLED(v int16)                         { h.node.led = v }
func (h *mateHost) Scratch() *vm.Scratch                   { return &h.scratch }
func (h *mateHost) TSInp(tuplespace.Template, []tuplespace.Value) (tuplespace.Tuple, bool) {
	return tuplespace.Tuple{}, false
}
func (h *mateHost) TSRdp(tuplespace.Template, []tuplespace.Value) (tuplespace.Tuple, bool) {
	return tuplespace.Tuple{}, false
}
func (h *mateHost) TSCount(tuplespace.Template) int { return 0 }

func (h *mateHost) Sense(s tuplespace.SensorType) (int16, bool) {
	if h.node.board == nil {
		return 0, false
	}
	return h.node.board.Sense(s, h.node.sim.Now())
}

// TSOut keeps a copy of t: its fields are the host's scratch.
func (h *mateHost) TSOut(t tuplespace.Tuple) error {
	h.node.SentTuples = append(h.node.SentTuples, tuplespace.Tuple{Fields: slices.Clone(t.Fields)})
	return nil
}

func (h *mateHost) RegisterReaction(tuplespace.Reaction) error {
	return errors.New("mate: no reactions")
}
func (h *mateHost) DeregisterReaction(uint16, tuplespace.Template) bool { return false }

var _ vm.Host = (*mateHost)(nil)
var _ radio.Receiver = (*Node)(nil)

// Network is a Maté deployment on a grid, mirroring core.Deployment.
type Network struct {
	Sim    *sim.Parallel
	Medium *radio.Medium
	nodes  map[topology.Location]*Node
}

// NewGridNetwork builds a w×h Maté network with the given radio model.
func NewGridNetwork(seed int64, w, h int, params radio.Params, field sensor.Field, cfg Config) (*Network, error) {
	s := sim.New(seed)
	medium := radio.NewMedium(s, topology.Grid{}, params)
	nw := &Network{Sim: s, Medium: medium, nodes: make(map[topology.Location]*Node)}
	for _, loc := range topology.GridLocations(w, h) {
		board := sensor.NewBoard(loc, field, sensor.DefaultSensors()...)
		n, err := NewNode(s.Context(sim.Key2D(loc.X, loc.Y)), medium, loc, board, cfg)
		if err != nil {
			return nil, err
		}
		nw.nodes[loc] = n
	}
	return nw, nil
}

// Start begins all nodes. Each draws from its own context's stream, so
// the order they start in does not matter.
func (nw *Network) Start() {
	for _, n := range nw.Nodes() {
		n.Start()
	}
}

// Node returns the mote at loc, or nil.
func (nw *Network) Node(loc topology.Location) *Node { return nw.nodes[loc] }

// Nodes returns all motes sorted by location.
func (nw *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].loc.Compare(out[j].loc) < 0 })
	return out
}

// Inject installs a capsule at one node (the node nearest the base
// station); viral dissemination spreads it from there.
func (nw *Network) Inject(at topology.Location, c Capsule) error {
	n := nw.nodes[at]
	if n == nil {
		return fmt.Errorf("mate: no node at %v", at)
	}
	if err := n.Install(c); err != nil {
		return err
	}
	// Kick dissemination immediately rather than waiting a beacon period.
	n.broadcastCapsule(c.Type)
	return nil
}

// Converged reports whether every node holds at least the given version of
// the capsule type.
func (nw *Network) Converged(typ uint8, version uint16) bool {
	for _, n := range nw.nodes {
		if n.Version(typ) < version {
			return false
		}
	}
	return true
}
