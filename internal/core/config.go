// Package core implements the Agilla middleware of Figure 4: the Agilla
// engine and the agent, context, instruction, and tuple space managers, the
// agent sender/receiver pair that runs the hop-by-hop migration protocol,
// and the remote tuple space operation manager.
//
// One Node is one MICA2 mote running Agilla on TinyOS. Nodes attach to a
// radio.Medium and are driven entirely by the discrete-event kernel in
// internal/sim; nothing in this package starts goroutines.
package core

import (
	"time"

	"github.com/agilla-go/agilla/internal/network"
)

// Defaults from §3.2 of the paper.
const (
	// DefaultMaxAgents: "By default the agent manager can handle up to 4
	// agents."
	DefaultMaxAgents = 4
	// DefaultCodeBlocks: "By default, the instruction manager is allocated
	// 440 bytes (20 blocks)."
	DefaultCodeBlocks = 20
	// DefaultSlice: "each agent can execute a fixed number of instructions
	// before switching context. The default number of instructions is 4."
	DefaultSlice = 4
	// DefaultAckTimeout: "If a one-hop acknowledgement is not received
	// within 0.1 seconds, the message is retransmitted."
	DefaultAckTimeout = 100 * time.Millisecond
	// DefaultMaxRetries: "This repeats up for four times."
	DefaultMaxRetries = 4
	// DefaultReceiverStall: "If the operation stalls for over 0.25
	// seconds, the receiver aborts."
	DefaultReceiverStall = 250 * time.Millisecond
	// DefaultRemoteTimeout: "the initiator timeouts after 2 seconds".
	DefaultRemoteTimeout = 2 * time.Second
	// DefaultRemoteRetries: "re-transmits the request at most twice."
	DefaultRemoteRetries = 2
)

// Calibration constants for the latency model. The per-hop frame airtimes
// come from internal/radio; these add the CPU-side packaging and
// instantiation work a migration performs on an 8 MHz ATmega128L, and are
// tuned so one-hop smove lands near the paper's ≈225 ms and one-hop remote
// tuple space ops near ≈55 ms (Figures 10 and 11). The rationale is
// documented in README.md ("Reproducing the paper", Calibration).
const (
	// DefaultMigSendOverhead models snapshotting the agent and packing
	// messages before the first byte leaves the sender.
	DefaultMigSendOverhead = 65 * time.Millisecond
	// DefaultMigRecvOverhead models allocating and reassembling the agent
	// on the receiver before it resumes.
	DefaultMigRecvOverhead = 70 * time.Millisecond
	// DefaultBootDelay models a recovering mote's TinyOS boot: power-on
	// to first radio activity.
	DefaultBootDelay = 500 * time.Millisecond
)

// ExecMode selects the engine's execution strategy. Both modes implement
// the same observable semantics — identical trace, stats, and energy
// behavior — they differ only in how many scheduler events and how much
// dispatch work each instruction costs.
type ExecMode uint8

// Execution modes.
const (
	// ExecAuto (the default): the in-place step chain running
	// pre-decoded instructions (vm.Compile), with the interpreter as the
	// fallback wherever no compiled step sits at the PC.
	ExecAuto ExecMode = iota
	// ExecStep: the seed engine — one interpreted instruction per
	// scheduled sim event. The oracle ExecAuto is diffed against.
	ExecStep
)

// Config tunes one node. The zero value selects the paper's defaults.
type Config struct {
	// MaxAgents bounds concurrently hosted agents.
	MaxAgents int
	// CodeBlocks is the instruction-memory budget in 22-byte blocks.
	CodeBlocks int
	// ArenaBytes is the tuple space budget (0 = 600, §3.2).
	ArenaBytes int
	// RegistryBytes and RegistryMax bound the reaction registry
	// (0 = 400 bytes / 10 reactions, §3.2).
	RegistryBytes int
	RegistryMax   int
	// Slice is the round-robin instruction quantum.
	Slice int
	// Exec selects the execution strategy (zero value: ExecAuto).
	Exec ExecMode

	// AckTimeout, MaxRetries, ReceiverStall parameterize the hop-by-hop
	// migration protocol.
	AckTimeout    time.Duration
	MaxRetries    int
	ReceiverStall time.Duration

	// RemoteTimeout and RemoteRetries parameterize remote tuple space
	// operations. RemoteRetries counts retransmissions after the first
	// attempt; set to -1 to disable retransmission entirely.
	RemoteTimeout time.Duration
	RemoteRetries int

	// MigSendOverhead and MigRecvOverhead are the calibrated CPU costs of
	// packing and unpacking a migrating agent.
	MigSendOverhead time.Duration
	MigRecvOverhead time.Duration

	// BootDelay is how long a recovering mote takes from power-on until
	// it is back on the air (0 = DefaultBootDelay).
	BootDelay time.Duration

	// EndToEndMigration switches the migration protocol to the end-to-end
	// variant the paper tried and abandoned (§3.2: "We tried using
	// end-to-end communication ... unacceptably prone to failure").
	// Kept as an ablation.
	EndToEndMigration bool

	// Network tunes beaconing and routing.
	Network network.Config
}

func (c Config) withDefaults() Config {
	if c.MaxAgents <= 0 {
		c.MaxAgents = DefaultMaxAgents
	}
	if c.CodeBlocks <= 0 {
		c.CodeBlocks = DefaultCodeBlocks
	}
	if c.Slice <= 0 {
		c.Slice = DefaultSlice
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = DefaultAckTimeout
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.ReceiverStall <= 0 {
		c.ReceiverStall = DefaultReceiverStall
	}
	if c.RemoteTimeout <= 0 {
		c.RemoteTimeout = DefaultRemoteTimeout
	}
	// Negative RemoteRetries means "explicitly none" and is preserved, so
	// normalization is idempotent (0 is ambiguous: it also means "use the
	// default"). Consumers clamp negatives at the point of use.
	if c.RemoteRetries == 0 {
		c.RemoteRetries = DefaultRemoteRetries
	}
	if c.MigSendOverhead <= 0 {
		c.MigSendOverhead = DefaultMigSendOverhead
	}
	if c.MigRecvOverhead <= 0 {
		c.MigRecvOverhead = DefaultMigRecvOverhead
	}
	if c.BootDelay <= 0 {
		c.BootDelay = DefaultBootDelay
	}
	c.Network = c.Network.WithDefaults()
	return c
}
