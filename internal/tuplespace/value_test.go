package tuplespace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/agilla-go/agilla/internal/topology"
)

// Generate lets testing/quick produce valid Values.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	kinds := []Kind{KindValue, KindString, KindLocation, KindType, KindReading, KindAgentID}
	k := kinds[r.Intn(len(kinds))]
	v := Value{Kind: k}
	switch k {
	case KindString:
		n := r.Intn(MaxStringLen + 1)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		v = Str(string(b))
	case KindLocation, KindReading:
		v.A = int16(r.Intn(1 << 16))
		v.B = int16(r.Intn(1 << 16))
	default:
		v.A = int16(r.Intn(1 << 16))
	}
	return reflect.ValueOf(v)
}

func TestValueConstructors(t *testing.T) {
	tests := []struct {
		name string
		got  Value
		want Value
	}{
		{"int", Int(-5), Value{Kind: KindValue, A: -5}},
		{"str", Str("fir"), Value{Kind: KindString, name: [3]byte{'f', 'i', 'r'}, A: 3}},
		{"str-truncates", Str("fires"), Value{Kind: KindString, name: [3]byte{'f', 'i', 'r'}, A: 3}},
		{"loc", LocV(topology.Loc(2, 3)), Value{Kind: KindLocation, A: 2, B: 3}},
		{"type", TypeV(TypeLocation), Value{Kind: KindType, A: 3}},
		{"reading", Reading(SensorTemperature, 250), Value{Kind: KindReading, A: 1, B: 250}},
		{"agent", AgentIDV(7), Value{Kind: KindAgentID, A: 7}},
	}
	for _, tt := range tests {
		if !tt.got.Equal(tt.want) {
			t.Errorf("%s: got %+v, want %+v", tt.name, tt.got, tt.want)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(v Value) bool {
		b := v.Marshal(nil)
		if len(b) != v.EncodedSize() {
			return false
		}
		got, n, err := UnmarshalValue(b)
		return err == nil && n == len(b) && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalValueErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{byte(KindValue)},          // truncated int
		{byte(KindLocation), 1, 2}, // truncated location
		{byte(KindString), 5, 'a'}, // length beyond MaxStringLen
		{byte(KindString), 2, 'a'}, // shorter than declared
		{99, 0, 0},                 // unknown kind
	}
	for i, b := range bad {
		if _, _, err := UnmarshalValue(b); err == nil {
			t.Errorf("case %d: expected error for % x", i, b)
		}
	}
}

func TestMatchesType(t *testing.T) {
	tests := []struct {
		v    Value
		t    TypeCode
		want bool
	}{
		{Int(5), TypeValue, true},
		{Int(5), TypeString, false},
		{Str("abc"), TypeString, true},
		{LocV(topology.Loc(1, 1)), TypeLocation, true},
		{Reading(SensorTemperature, 9), TypeReading, true},
		{Reading(SensorTemperature, 9), TypeOfSensor(SensorTemperature), true},
		{Reading(SensorPhoto, 9), TypeOfSensor(SensorTemperature), false},
		{AgentIDV(3), TypeAgentID, true},
		{Int(5), TypeAny, true},
		{Value{}, TypeAny, false},
		{Int(5), TypeCode(99), false},
	}
	for i, tt := range tests {
		if got := tt.v.MatchesType(tt.t); got != tt.want {
			t.Errorf("case %d: %v MatchesType(%d) = %v, want %v", i, tt.v, tt.t, got, tt.want)
		}
	}
}

func TestValueStrings(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Int(7), "7"},
		{Str("fir"), `"fir"`},
		{LocV(topology.Loc(2, 1)), "(2,1)"},
		{Reading(SensorTemperature, 250), "temperature=250"},
		{AgentIDV(3), "agent:3"},
		{Value{}, "invalid"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String(%+v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestFormatValues(t *testing.T) {
	got := FormatValues([]Value{Str("fir"), LocV(topology.Loc(1, 2))})
	if got != `<"fir", (1,2)>` {
		t.Fatalf("FormatValues = %s", got)
	}
}

func TestSensorTypeString(t *testing.T) {
	if SensorTemperature.String() != "temperature" || SensorSmoke.String() != "smoke" {
		t.Fatal("sensor names wrong")
	}
	if SensorType(99).String() != "sensor(99)" {
		t.Fatal("unknown sensor name wrong")
	}
}
