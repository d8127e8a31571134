package sensor

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

func TestConstantField(t *testing.T) {
	b := NewBoard(topology.Loc(1, 1), Constant(25), tuplespace.SensorTemperature)
	v, ok := b.Sense(tuplespace.SensorTemperature, 0)
	if !ok || v != 25 {
		t.Errorf("Sense = %d,%v; want 25,true", v, ok)
	}
}

func TestMissingSensor(t *testing.T) {
	b := NewBoard(topology.Loc(1, 1), Constant(25), tuplespace.SensorTemperature)
	if _, ok := b.Sense(tuplespace.SensorSmoke, 0); ok {
		t.Error("smoke sensor should be absent")
	}
	if b.Samples() != 0 {
		t.Error("failed sense must not count as a sample")
	}
}

func TestFieldFunc(t *testing.T) {
	f := FieldFunc(func(loc topology.Location, s tuplespace.SensorType, now time.Duration) int16 {
		return int16(now / time.Second)
	})
	b := NewBoard(topology.Loc(1, 1), f, tuplespace.SensorPhoto)
	if v, _ := b.Sense(tuplespace.SensorPhoto, 5*time.Second); v != 5 {
		t.Errorf("time-varying field broken: %d", v)
	}
}

func TestNilField(t *testing.T) {
	b := NewBoard(topology.Loc(1, 1), nil, tuplespace.SensorSound)
	v, ok := b.Sense(tuplespace.SensorSound, 0)
	if !ok || v != 0 {
		t.Errorf("nil field should read zero: %d,%v", v, ok)
	}
}

func TestSampleCounting(t *testing.T) {
	b := NewBoard(topology.Loc(1, 1), Constant(1), tuplespace.SensorTemperature)
	for i := 0; i < 5; i++ {
		b.Sense(tuplespace.SensorTemperature, 0)
	}
	if b.Samples() != 5 {
		t.Errorf("Samples = %d, want 5", b.Samples())
	}
}

func TestTypesSorted(t *testing.T) {
	b := NewBoard(topology.Loc(1, 1), nil,
		tuplespace.SensorSmoke, tuplespace.SensorTemperature, tuplespace.SensorPhoto)
	got := b.Types()
	want := []tuplespace.SensorType{
		tuplespace.SensorTemperature, tuplespace.SensorPhoto, tuplespace.SensorSmoke,
	}
	if len(got) != len(want) {
		t.Fatalf("Types = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Types[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestContextTuples(t *testing.T) {
	b := NewBoard(topology.Loc(1, 1), nil, tuplespace.SensorTemperature, tuplespace.SensorPhoto)
	tuples := b.ContextTuples()
	if len(tuples) != 2 {
		t.Fatalf("ContextTuples = %d entries, want 2", len(tuples))
	}
	// An agent looking for a thermometer matches with <"sns", temperature-type>.
	probe := tuplespace.Tmpl(
		tuplespace.Str("sns"),
		tuplespace.TypeV(tuplespace.TypeOfSensor(tuplespace.SensorTemperature)),
	)
	found := false
	for _, tp := range tuples {
		if probe.Matches(tp) {
			found = true
		}
	}
	if !found {
		t.Error("temperature context tuple not discoverable by template")
	}
}

func TestDefaultSensors(t *testing.T) {
	ds := DefaultSensors()
	if len(ds) != 3 {
		t.Fatalf("DefaultSensors = %v", ds)
	}
	b := NewBoard(topology.Loc(1, 1), nil, ds...)
	if !b.Has(tuplespace.SensorTemperature) || b.Has(tuplespace.SensorSmoke) {
		t.Error("default board contents wrong")
	}
}
