package core

import (
	"time"

	"github.com/agilla-go/agilla/internal/vm"
)

// The per-node energy model. A MICA2 runs on two AA cells, and the
// paper's deployment story (long idle phases, short bursts of agent
// activity, §5) is fundamentally an energy story: a mote that beacons,
// relays migrations, and samples sensors drains its battery and drops out
// of the network. The model charges a configurable joule cost per VM
// instruction, per radio transmission and reception, per sensor sample,
// and a continuous idle drain; when the battery empties the node dies at
// exactly that event (EnergyExhausted, then NodeDied with CauseEnergy),
// and the network routes around it like any other failure.
//
// Accounting is integer nanojoules. Every charge happens inside one of
// the node's own events, so the drain sequence is a pure function of the
// node's schedule — bit-identical under the sequential and sharded
// executors, with no float-summation order to worry about.

// EnergyModel configures per-mote batteries. The zero value (CapacityJ
// <= 0) disables energy accounting entirely.
type EnergyModel struct {
	// CapacityJ is the battery capacity in joules; <= 0 disables the
	// model. Two alkaline AA cells hold roughly 3e4 J — scenarios usually
	// configure far less so exhaustion happens inside simulated minutes.
	CapacityJ float64
	// InstrJ is charged per executed VM instruction.
	InstrJ float64
	// SendJ and SendPerByteJ are charged per transmitted frame: a fixed
	// turnaround cost plus airtime cost per payload byte.
	SendJ        float64
	SendPerByteJ float64
	// RecvJ and RecvPerByteJ are charged per received frame.
	RecvJ        float64
	RecvPerByteJ float64
	// SenseJ is charged per sensor sample.
	SenseJ float64
	// IdleW is the idle drain in watts (joules per second), accrued
	// lazily against virtual time.
	IdleW float64
	// CheckEvery bounds how stale idle accrual may get on a totally
	// silent mote: a periodic self-check at this period catches
	// exhaustion by idle drain alone (default 1s). Activity-driven
	// exhaustion is exact regardless.
	CheckEvery time.Duration
}

// Enabled reports whether the model does any accounting.
func (m EnergyModel) Enabled() bool { return m.CapacityJ > 0 }

// DefaultEnergyModel returns costs calibrated to the MICA2 hardware the
// paper deployed: an ATmega128L at 3 V (≈24 mW active) and the CC1000
// radio (≈81 mW transmitting, ≈30 mW receiving, 38.4 kbps), with a small
// battery so simulated scenarios actually reach exhaustion. Scale
// CapacityJ up for long-lived deployments.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		CapacityJ:    5.0,    // a deliberately small cell: minutes of life under load
		InstrJ:       2.4e-6, // 24 mW × ~100 µs per bytecode instruction
		SendJ:        3.0e-4, // preamble+header airtime and TX turnaround
		SendPerByteJ: 1.7e-5, // 81 mW × 8 bits / 38.4 kbps
		RecvJ:        1.0e-4, //
		RecvPerByteJ: 6.3e-6, // 30 mW × 8 bits / 38.4 kbps
		SenseJ:       1.5e-5, // ADC conversion + sensor settle
		IdleW:        9.0e-5, // ≈30 µA sleep current at 3 V
		CheckEvery:   time.Second,
	}
}

// VMCosts projects the model onto the static analyzer's cost table
// (vm.Analyze): the per-instruction, per-frame, per-byte, and per-sample
// figures, in integer nanojoules. The vm package cannot import core (the
// dependency runs the other way), so vm.DefaultEnergyCosts carries the
// same calibration and a test here pins the two together.
func (m EnergyModel) VMCosts() vm.EnergyCosts {
	return vm.EnergyCosts{
		InstrNJ:    nanojoules(m.InstrJ),
		SendNJ:     nanojoules(m.SendJ),
		SendByteNJ: nanojoules(m.SendPerByteJ),
		SenseNJ:    nanojoules(m.SenseJ),
	}
}

// nanojoules converts a joule figure to integer nanojoules, clamping
// negatives to zero.
func nanojoules(j float64) uint64 {
	if j <= 0 {
		return 0
	}
	return uint64(j*1e9 + 0.5)
}

// battery is one node's charge state, in nanojoules. used covers the
// cells currently installed; spent accumulates the drain of previous
// lives (reset folds used into it), so deployment-wide accounting stays
// monotonic across revivals.
type battery struct {
	capacity uint64
	used     uint64
	spent    uint64

	instr      uint64
	sendFixed  uint64
	sendByte   uint64
	recvFixed  uint64
	recvByte   uint64
	sense      uint64
	idlePerSec uint64
	checkEvery time.Duration

	mark time.Duration // idle drain accrued up to this instant
	gen  int           // invalidates stale battery tick chains
}

func newBattery(m EnergyModel, now time.Duration) *battery {
	b := &battery{
		capacity:   nanojoules(m.CapacityJ),
		instr:      nanojoules(m.InstrJ),
		sendFixed:  nanojoules(m.SendJ),
		sendByte:   nanojoules(m.SendPerByteJ),
		recvFixed:  nanojoules(m.RecvJ),
		recvByte:   nanojoules(m.RecvPerByteJ),
		sense:      nanojoules(m.SenseJ),
		idlePerSec: nanojoules(m.IdleW),
		checkEvery: m.CheckEvery,
		mark:       now,
	}
	if b.checkEvery <= 0 {
		b.checkEvery = time.Second
	}
	return b
}

// accrue folds idle drain up to now into the used total. Only the
// charging paths call it — all of them node events — so the committed
// drain sequence is a pure function of the node's schedule; host-side
// reads use usedAt instead and never commit.
func (b *battery) accrue(now time.Duration) {
	if now <= b.mark {
		return
	}
	delta := now - b.mark
	b.mark = now
	if b.idlePerSec > 0 {
		b.used += uint64(delta) * b.idlePerSec / uint64(time.Second)
	}
}

// usedAt reports the drain total as of now — committed charges plus
// pending idle drain — without mutating anything, so observing a battery
// can never perturb the run.
func (b *battery) usedAt(now time.Duration) uint64 {
	u := b.used
	if now > b.mark && b.idlePerSec > 0 {
		u += uint64(now-b.mark) * b.idlePerSec / uint64(time.Second)
	}
	return u
}

// reset installs a fresh battery (a recovered node comes back with new
// cells), folding the old cells' drain into the lifetime total.
func (b *battery) reset(now time.Duration) {
	b.spent += b.used
	b.used = 0
	b.mark = now
}

// empty reports exhaustion.
func (b *battery) empty() bool { return b.used >= b.capacity }

// charge accrues idle drain to now, adds nj, and reports whether the
// battery just emptied.
func (b *battery) charge(now time.Duration, nj uint64) bool {
	b.accrue(now)
	b.used += nj
	return b.empty()
}

// SetEnergy attaches a battery to the node. Call before Start; a disabled
// model detaches nothing and does nothing. The base station is mains
// powered and never gets one.
func (n *Node) SetEnergy(m EnergyModel) {
	if !m.Enabled() {
		return
	}
	n.bat = newBattery(m, n.sim.Now())
	n.net.OnSend = func(payloadBytes int) {
		n.charge(n.bat.sendFixed + uint64(payloadBytes)*n.bat.sendByte)
	}
}

// Battery reports the node's energy state in joules; ok is false when the
// node has no energy model. The read is pure: it never commits pending
// idle drain, so probing a battery cannot perturb the deterministic
// drain sequence. A dead mote's figure is frozen at its death (Crash
// settles the battery), never to accrue phantom idle drain.
func (n *Node) Battery() (usedJ, capacityJ float64, ok bool) {
	if n.bat == nil {
		return 0, 0, false
	}
	used := n.bat.used
	if n.life == NodeUp {
		used = n.bat.usedAt(n.sim.Now())
	}
	return float64(used) / 1e9, float64(n.bat.capacity) / 1e9, true
}

// charge burns nj nanojoules at the current instant; an emptied battery
// kills the node on the spot.
func (n *Node) charge(nj uint64) {
	if n.bat == nil || n.life != NodeUp {
		return
	}
	if n.bat.charge(n.sim.Now(), nj) {
		n.exhaust()
	}
}

// exhaust is the battery-death path: the exhaustion event fires, then the
// node crashes with CauseEnergy (NodeDied follows, agents die with the
// node).
func (n *Node) exhaust() {
	n.stats.EnergyDeaths++
	if n.trace.EnergyExhausted != nil {
		n.trace.EnergyExhausted(n.loc, float64(n.bat.used)/1e9)
	}
	n.Crash(CauseEnergy)
}

// startBatteryTick arms the periodic idle-drain check; without it a
// totally silent mote would never notice its battery emptied. The chain
// stops itself when the node goes down and is re-armed by Recover.
func (n *Node) startBatteryTick() {
	if n.bat == nil || n.bat.idlePerSec == 0 {
		return
	}
	n.bat.gen++
	gen := n.bat.gen
	var tick func()
	tick = func() {
		if n.life != NodeUp || gen != n.bat.gen {
			return
		}
		n.bat.accrue(n.sim.Now())
		if n.bat.empty() {
			n.exhaust()
			return
		}
		n.sim.Schedule(n.bat.checkEvery, tick)
	}
	n.sim.Schedule(n.bat.checkEvery, tick)
}

// stopBatteryTick invalidates the running tick chain.
func (n *Node) stopBatteryTick() {
	if n.bat != nil {
		n.bat.gen++
	}
}

// EnergyUsedJ sums drained energy across all motes over the whole run —
// batteries emptied in previous lives included, so the figure is
// monotonic under churn. Summation is in location order over integer
// nanojoules and reads are pure (no drain committed, dead motes frozen
// at death), so the figure is exact and deterministic.
func (d *Deployment) EnergyUsedJ() float64 {
	var total uint64
	for _, n := range d.Nodes() {
		if n.bat == nil {
			continue
		}
		total += n.bat.spent
		if n.life == NodeUp {
			total += n.bat.usedAt(n.sim.Now())
		} else {
			total += n.bat.used
		}
	}
	return float64(total) / 1e9
}
