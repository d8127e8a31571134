package core

import (
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
)

// The Agilla engine (§3.2): a virtual machine kernel running all hosted
// agents with round-robin scheduling. Each agent executes up to Slice
// instructions (default 4, as in Maté) before a context switch, and the
// engine switches immediately when an agent executes a long-running
// instruction (sleep, sense, wait, blocking ops, migration, remote ops).
//
// The paper's one-instruction-per-task execution model is a semantic
// contract — slice-based context switches, reaction delivery at
// instruction boundaries — not a mandate to pay one heap-scheduled event
// per opcode. Under ExecAuto the engine preserves the exact observable
// schedule while collapsing the scheduler traffic two ways:
//
//   - Straight-line bursts: after an instruction completes with no
//     effect, no pending firing, slice budget left, a compiled closure at
//     the next PC, and no other event due before the instruction's own
//     completion time (sim.Ctx.LocalOK), the engine advances the shard
//     clock in place (RunLocal) and executes the next instruction inside
//     the same sim event. Every per-instruction observable — stats, trace
//     hooks, energy accrual, and mid-instruction wakeups — fires at the
//     identical virtual time and in the identical order as the seed
//     one-event-per-instruction engine.
//   - Local step chains: boundaries the in-place loop cannot absorb
//     (slice rotations, reaction deliveries, effect handling) are
//     scheduled with ScheduleLocal, which keeps the seed's exact event
//     identity but skips the event heap whenever ordering permits.
//
// Code with no compiled closure at the PC — a program that fails
// verification, or a dynamic jump that landed between instruction
// boundaries — runs through the interpreter on the same local step chain.
//
// Under ExecStep, the only other mode, the seed behavior is preserved
// verbatim — one interpreted instruction per heap event — as the oracle
// the determinism suite diffs ExecAuto against.

// progCache memoizes vm.Compile across the whole process. Compilation is
// a pure function of the code bytes, so nodes on every shard share one
// cache (it locks internally) and a program is compiled once no matter
// how many agents run it or how often they migrate.
var progCache = vm.NewCache()

// enqueue makes a ready record runnable and kicks the engine.
func (n *Node) enqueue(rec *record) {
	if rec.queued || rec.state != AgentReady {
		return
	}
	rec.queued = true
	rec.sliceUsed = 0
	n.runq.Push(rec)
	n.pump()
}

// dequeueHead removes the queue head.
func (n *Node) dequeueHead() {
	n.runq.PopHead().queued = false
}

// pump schedules an engine step if one is not already pending.
func (n *Node) pump() {
	if n.busy || n.life != NodeUp || n.runq.Len() == 0 {
		return
	}
	n.busy = true
	if n.burst {
		n.sim.ScheduleLocal(0, n.stepFn)
	} else {
		n.sim.Post(n.stepFn)
	}
}

// stepInstr executes one instruction of rec: the compiled closure when
// the PC sits on a compiled boundary, the interpreter otherwise (no
// compiled program, or a dynamic jump landed between boundaries).
func (n *Node) stepInstr(rec *record, out *vm.Outcome) {
	if rec.prog != nil {
		if fn := rec.prog.StepAt(rec.agent.PC); fn != nil {
			fn(rec.agent, n, out)
			return
		}
	}
	*out = vm.Step(rec.agent, n)
}

// engineStep runs the agent at the head of the run queue: one instruction
// under ExecStep, a maximal absorbable straight-line burst otherwise,
// then reschedules itself after the (last) instruction's latency.
func (n *Node) engineStep() {
	n.busy = false
	if n.life != NodeUp {
		return
	}
	// Skip agents that stopped being runnable while queued.
	for n.runq.Len() > 0 && n.runq.Head().state != AgentReady {
		n.dequeueHead()
	}
	if n.runq.Len() == 0 {
		return
	}
	rec := n.runq.Head()

	// Deliver one pending reaction firing at the instruction boundary:
	// save the PC on the stack so the agent can resume, push the matched
	// tuple, and jump to the reaction's code (§3.3).
	if rec.pendingCount() > 0 {
		if err := n.deliverFiring(rec, rec.popFiring()); err != nil {
			n.killAgent(rec, err)
			n.pump()
			return
		}
	}

	out := &n.stepOut // the shard's scratch: engine steps never nest or overlap on one shard
	n.stepInstr(rec, out)
	for {
		if n.life != NodeUp {
			return // a host call inside the instruction (sense) emptied the battery
		}
		n.stats.InstrExecuted++
		if n.trace.InstrExecuted != nil {
			n.trace.InstrExecuted(n.loc, rec.agent.ID, out.Op)
		}
		if n.bat != nil {
			n.charge(n.bat.instr)
			if n.life != NodeUp {
				return // this instruction emptied the battery; its effect is lost
			}
		}
		if !n.burst || out.Effect != vm.EffectNone || rec.prog == nil ||
			rec.sliceUsed+1 >= n.cfg.Slice || rec.pendingCount() > 0 ||
			rec.prog.RunLen(rec.agent.PC) == 0 {
			break
		}
		// The next instruction of this straight-line run would execute at
		// now+Cost; absorb it into this event only if nothing else in the
		// simulation is due first (otherwise the boundary goes through the
		// scheduler and ordering is resolved there, exactly as seeded).
		at := n.sim.Now() + out.Cost
		if !n.sim.LocalOK(at) {
			break
		}
		rec.sliceUsed++
		n.sim.RunLocal(at)
		n.stepInstr(rec, out)
	}

	n.applyEffect(rec, out)

	// Context switch policy: rotate when the slice is exhausted or the
	// agent stopped being runnable ("if an agent executes a long-running
	// instruction ... the engine immediately switches context", §3.2).
	if rec.state == AgentReady {
		rec.sliceUsed++
		if rec.sliceUsed >= n.cfg.Slice {
			n.runq.Rotate()
			n.runq.Tail().sliceUsed = 0
		}
	} else if n.runq.Len() > 0 && n.runq.Head() == rec {
		n.dequeueHead()
	}

	if n.runq.Len() > 0 || rec.state == AgentReady {
		n.busy = true
		if n.burst {
			n.sim.ScheduleLocal(out.Cost, n.stepFn)
		} else {
			n.sim.Schedule(out.Cost, n.stepFn)
		}
	}
}

// deliverFiring redirects an agent into reaction code.
func (n *Node) deliverFiring(rec *record, f firing) error {
	a := rec.agent
	// Save the interrupted PC for the reaction epilogue (jumps).
	if err := a.Push(tuplespace.Int(int16(a.PC))); err != nil {
		return err
	}
	if err := a.PushFields(f.tuple.Fields); err != nil {
		return err
	}
	a.PC = f.pc
	return nil
}

// applyEffect carries out the engine-side half of a long-running
// instruction.
func (n *Node) applyEffect(rec *record, out *vm.Outcome) {
	switch out.Effect {
	case vm.EffectNone:
		// keep running

	case vm.EffectHalt:
		rec.state = AgentDead
		n.stats.AgentsHalted++
		n.tracker.finish(n.sim.Now(), n.loc, rec.agent.ID, true, nil)
		if n.trace.AgentHalted != nil {
			n.trace.AgentHalted(n.loc, rec.agent.ID)
		}
		n.reclaim(rec.agent.ID)

	case vm.EffectError:
		n.killAgent(rec, out.Err)

	case vm.EffectSleep:
		rec.state = AgentSleeping
		rec.wake.Reset(out.Sleep)

	case vm.EffectWait:
		// Resumes when a reaction fires (onTupleInserted). An agent with
		// a firing already queued resumes immediately.
		if rec.pendingCount() > 0 {
			rec.state = AgentReady
			n.enqueue(rec)
			return
		}
		rec.state = AgentWaiting

	case vm.EffectBlocked:
		rec.state = AgentBlocked
		rec.blockTmpl = out.Block
		rec.blockRemove = out.BlockRemove

	case vm.EffectMigrate:
		n.startMigration(rec, *out)

	case vm.EffectRemote:
		n.startRemote(rec, *out)
	}
}

// killAgent reclaims an agent that died with an error.
func (n *Node) killAgent(rec *record, err error) {
	rec.state = AgentDead
	n.stats.AgentsDied++
	n.tracker.finish(n.sim.Now(), n.loc, rec.agent.ID, false, err)
	if n.trace.AgentDied != nil {
		n.trace.AgentDied(n.loc, rec.agent.ID, err)
	}
	n.reclaim(rec.agent.ID)
}

// resumeAgent returns a suspended agent to the run queue with the given
// condition code (used by migration and remote completions).
func (n *Node) resumeAgent(rec *record, condition int16) {
	if rec.state == AgentDead {
		return
	}
	rec.agent.Condition = condition
	rec.state = AgentReady
	n.enqueue(rec)
}
