// Package sensor models the MICA2 sensor board. The paper's agents sample
// sensors with the sense instruction and discover which sensors a node
// carries through pre-defined tuples Agilla places in the local tuple space
// (§2.2: "If a node has a thermometer, Agilla would insert a 'temperature
// tuple' into its tuple space").
//
// Readings come from an environment Field so scenarios (the fire-spread
// case study, a constant lab bench, a per-node lookup table) can drive what
// every node senses over virtual time.
package sensor

import (
	"time"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// Field supplies the physical quantity a sensor measures, as a function of
// place, sensor type, and virtual time.
type Field interface {
	Sample(loc topology.Location, s tuplespace.SensorType, now time.Duration) int16
}

// FieldFunc adapts a function to the Field interface.
type FieldFunc func(loc topology.Location, s tuplespace.SensorType, now time.Duration) int16

// Sample implements Field.
func (f FieldFunc) Sample(loc topology.Location, s tuplespace.SensorType, now time.Duration) int16 {
	return f(loc, s, now)
}

// Constant is a field that reads the same value everywhere, forever.
type Constant int16

// Sample implements Field.
func (c Constant) Sample(topology.Location, tuplespace.SensorType, time.Duration) int16 {
	return int16(c)
}

// Board is the set of sensors one mote carries, bound to a field.
type Board struct {
	loc   topology.Location
	field Field
	// sensors is a presence bitmask indexed by SensorType — sense runs on
	// every monitor-loop iteration of every mote, so the check must not
	// pay a map lookup.
	sensors uint64
	// samples counts sense operations, for the energy/overhead accounting.
	samples uint64
}

// sensorBit returns the presence-mask bit for s, 0 for types outside the
// representable range (which therefore read as absent).
func sensorBit(s tuplespace.SensorType) uint64 {
	if s < 0 || s > 63 {
		return 0
	}
	return 1 << uint(s)
}

// NewBoard creates a board at loc with the given sensors. A nil field reads
// zero everywhere.
func NewBoard(loc topology.Location, field Field, sensors ...tuplespace.SensorType) *Board {
	b := &Board{loc: loc, field: field}
	for _, s := range sensors {
		b.sensors |= sensorBit(s)
	}
	return b
}

// DefaultSensors is the standard MICA2 sensor-board complement used by the
// simulated deployment.
func DefaultSensors() []tuplespace.SensorType {
	return []tuplespace.SensorType{
		tuplespace.SensorTemperature,
		tuplespace.SensorPhoto,
		tuplespace.SensorSound,
	}
}

// Has reports whether the board carries sensor s.
func (b *Board) Has(s tuplespace.SensorType) bool { return b.sensors&sensorBit(s) != 0 }

// MoveTo rebinds the board to a new location (the mote moved): future
// samples read the field at the new position.
func (b *Board) MoveTo(loc topology.Location) { b.loc = loc }

// Types returns the sensors on the board in ascending type order.
func (b *Board) Types() []tuplespace.SensorType {
	var out []tuplespace.SensorType
	for s := tuplespace.SensorTemperature; s <= tuplespace.SensorSmoke; s++ {
		if b.Has(s) {
			out = append(out, s)
		}
	}
	return out
}

// Samples returns how many sense operations have been served.
func (b *Board) Samples() uint64 { return b.samples }

// Sense samples sensor s at virtual time now; ok is false if the board does
// not carry that sensor.
func (b *Board) Sense(s tuplespace.SensorType, now time.Duration) (int16, bool) {
	if b.sensors&sensorBit(s) == 0 {
		return 0, false
	}
	b.samples++
	if b.field == nil {
		return 0, true
	}
	return b.field.Sample(b.loc, s, now), true
}

// ContextTuples returns the pre-defined sensor-availability tuples Agilla
// inserts into the node's tuple space at boot so agents can discover what
// the node can sense (§2.2). Each is <"sns", zero-reading-of-sensor>, so an
// agent probes with the template <"sns", sensor-type-wildcard>.
func (b *Board) ContextTuples() []tuplespace.Tuple {
	var out []tuplespace.Tuple
	for _, s := range b.Types() {
		out = append(out, tuplespace.T(
			tuplespace.Str("sns"),
			tuplespace.Reading(s, 0),
		))
	}
	return out
}
