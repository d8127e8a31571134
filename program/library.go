package program

import (
	"slices"
	"sync"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// Re-exported tuple field constructors, so builder chains read without
// importing a second package.
var (
	// Int constructs an integer field.
	Int = tuplespace.Int
	// Str constructs a short string field (at most 3 characters).
	Str = tuplespace.Str
	// LocV constructs a location field.
	LocV = tuplespace.LocV
	// TypeV constructs a type-wildcard field for templates.
	TypeV = tuplespace.TypeV
	// Tmpl builds a template from fields.
	Tmpl = tuplespace.Tmpl
)

// Sensor types carried by the default simulated board.
const (
	SensorTemperature = tuplespace.SensorTemperature
	SensorPhoto       = tuplespace.SensorPhoto
	SensorSound       = tuplespace.SensorSound
	SensorSmoke       = tuplespace.SensorSmoke
)

// Entry is one canned program in the Library: a paper agent available
// both as its assembly listing and as the byte-identical builder-made
// Program.
type Entry struct {
	// Name identifies the entry (Get looks it up).
	Name string
	// Figure cites the paper listing the agent reproduces, if any.
	Figure string
	// Description says what the agent does.
	Description string
	// Source is the assembly listing (the golden reference; tests assert
	// Program compiles byte-identical to it).
	Source string
	// Program is the agent built with the Builder.
	Program *Program
}

// Library returns the paper's canonical agents, instantiated with their
// default parameters (the Figure 8 benchmark target (5,1), alerts
// notified to the base station at (0,0), the Figure 13 ten-minute
// sampling period). For other parameters call the constructors —
// SmoveRoundTrip, RoutAgent, FireDetector, FireTracker, FireSentinel,
// Blink — directly.
func Library() []Entry { return slices.Clone(library()) }

// library assembles and builds the entries on first use, once: programs
// are immutable, so every caller can share them.
var library = sync.OnceValue(func() []Entry {
	target := topology.Loc(5, 1)
	base := topology.Loc(0, 0)
	return []Entry{
		{
			Name:        "blink",
			Description: "quickstart greeter: light the LEDs, drop <\"hi\", location>, halt",
			Source:      agents.BlinkSrc(),
			Program:     Blink(),
		},
		{
			Name:        "smove-roundtrip",
			Figure:      "Figure 8",
			Description: "strong-move to the target mote and back home, then halt",
			Source:      agents.SmoveRoundTripSrc(target, base),
			Program:     SmoveRoundTrip(target, base),
		},
		{
			Name:        "rout",
			Figure:      "Figure 8",
			Description: "place the tuple <1> in the target mote's tuple space remotely",
			Source:      agents.RoutSrc(target),
			Program:     RoutAgent(target),
		},
		{
			Name:        "fire-detector",
			Figure:      "Figure 13",
			Description: "sample the temperature every 10 minutes; past 200, rout a fire alert and halt",
			Source:      agents.FireDetectorSrc(base, 4800),
			Program:     FireDetector(base, 4800),
		},
		{
			Name:        "fire-tracker",
			Figure:      "Figure 2",
			Description: "wait for a fire alert, clone to the fire, and keep a tracker on every hot neighbor",
			Source:      agents.FireTrackerSrc(),
			Program:     FireTracker(),
		},
		{
			Name:        "fire-sentinel",
			Figure:      "§5",
			Description: "looping fire-detector: keep re-alerting every period while the fire burns",
			Source:      agents.FireSentinelSrc(base, 16),
			Program:     FireSentinel(base, 16),
		},
	}
})

// Get returns the library entry with the given name.
func Get(name string) (Entry, bool) {
	for _, e := range library() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Blink is the quickstart agent: flash the LEDs and leave a greeting
// tuple <"hi", location>.
func Blink() *Program {
	return New("blink").
		PushC(7).Putled().
		PushN("hi").Loc().PushC(2).Out().
		Halt().
		MustBuild()
}

// SmoveRoundTrip is Figure 8's smove benchmark agent generalized to any
// target: strong-move to target, strong-move back home, halt. Panics if
// a coordinate does not fit pushloc's signed-byte range.
func SmoveRoundTrip(target, home Location) *Program {
	return New("smove-roundtrip").
		PushLocV(target).Smove().
		PushLocV(home).Smove().
		Halt().
		MustBuild()
}

// RoutAgent is Figure 8's rout benchmark agent: place the tuple <1> in
// the target node's tuple space over the air, then halt.
func RoutAgent(target Location) *Program {
	return New("rout").
		RoutTo(target, Int(1)).
		Halt().
		MustBuild()
}

// FireDetector is Figure 13: sample the temperature every sleepTicks
// (1/8 s units); past the threshold of 200, rout a <"fir", location>
// alert to notify and halt. Panics if sleepTicks exceeds int16.
func FireDetector(notify Location, sleepTicks int) *Program {
	return New("fire-detector").
		Label("BEGIN").
		Sense(SensorTemperature).
		PushCL(200).Clt().
		JumpC("FIRE").
		PushCL(sleepTicks).Sleep().
		Jump("BEGIN").
		Label("FIRE").
		PushN("fir").Loc().PushC(2).
		PushLocV(notify).Rout().
		Halt().
		MustBuild()
}

// FireTracker is the FIRETRACKER agent: the Figure 2 prologue (React on
// <"fir", location>) followed by the tracking body — every copy marks
// its presence, scans its neighbors, and strong-clones onto any hot
// neighbor that lacks a tracker, re-scanning every 2 s. Heap variables
// 10 and 11 are used by the body.
func FireTracker() *Program {
	return New("fire-tracker").
		React(Tmpl(Str("fir"), TypeV(TypeLocation)), func(b *Builder) {
			b.Pop(). // field count pushed by the firing
					Sclone(). // strong clone to the node that detected fire
					Pop().    // the "fir" string field of the alert
					Pop()     // the saved PC; the FIRE path must leave the
				// stack as it found it so re-alerts can fire again
			b.Label("TBODY").
				Rdp(Str("trk")). // presence already marked here?
				IfElse(
					func(b *Builder) { b.Pop().Pop() },     // drop the rdp result
					func(b *Builder) { b.Out(Str("trk")) }, // mark presence
				).
				PushC(0).SetVar(10) // neighbor index
			b.Label("TLOOP").
				GetVar(10).Getnbr().
				JumpC("TCHK").Jump("TSLEEP") // exhausted: sleep and rescan
			b.Label("TCHK").
				SetVar(11).                              // remember the neighbor
				PushN("trk").PushC(1).GetVar(11).Rrdp(). // tracker already there?
				JumpC("TGOT").
				Sense(SensorTemperature). // are the flames near us?
				PushCL(80).Clt().
				JumpC("TCLONE").Jump("TNEXT")
			b.Label("TGOT").Pop().Pop().Jump("TNEXT")
			b.Label("TCLONE").GetVar(11).Sclone() // recruit the neighbor
			b.Label("TNEXT").GetVar(10).Inc().SetVar(10).Jump("TLOOP")
			b.Label("TSLEEP").PushC(16).Sleep().Jump("TBODY")
		}).
		MustBuild()
}

// FireSentinel is the case study's looping variant of Figure 13: where
// the paper's listing halts after one alert, the sentinel keeps
// monitoring, re-alerting every 4×sleepTicks while the fire burns.
// Panics if a sleep period exceeds int16.
func FireSentinel(notify Location, sleepTicks int) *Program {
	return New("fire-sentinel").
		Label("BEGIN").
		Sense(SensorTemperature).
		PushCL(200).Clt().
		JumpC("FIRE").
		PushCL(sleepTicks).Sleep().
		Jump("BEGIN").
		Label("FIRE").
		PushN("fir").Loc().PushC(2).
		PushLocV(notify).Rout().
		PushCL(sleepTicks * 4).Sleep().
		Jump("BEGIN").
		MustBuild()
}
