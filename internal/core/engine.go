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
// per opcode. The engine's step is one instruction: reaction delivery,
// the instruction, its charge, its effect, the slice rotation. Under
// ExecAuto the step that follows runs in place, inside the same sim
// event, whenever the kernel admits its time (sim.Ctx.RunLocal: nothing
// else in the simulation is due first, within the lookahead rule), and is
// scheduled otherwise. One chain thus spans jumps, slice rotations and
// effects alike, and every per-instruction observable — stats, trace
// hooks, energy accrual, mid-instruction wakeups — fires at the identical
// virtual time and in the identical order as the seed
// one-event-per-instruction engine.
//
// An instruction runs pre-decoded when its program verified (vm.Compile)
// and through the interpreter otherwise — a program that fails
// verification, or a dynamic jump that landed between instruction
// boundaries — on the same step chain. Both run the VM's one set of
// instruction semantics.
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

// dequeueHead removes the queue head, freeing a dead agent's record.
func (n *Node) dequeueHead() {
	rec := n.runq.PopHead()
	rec.queued = false
	n.free(rec)
}

// pump schedules an engine step if one is not already pending.
func (n *Node) pump() {
	if n.busy || n.life != NodeUp || n.runq.Len() == 0 {
		return
	}
	n.busy = true
	n.sim.Post(n.stepFn)
}

// stepInstr executes one instruction of rec: the compiled step when the
// PC sits on a compiled boundary, the interpreter otherwise (no compiled
// program, or a dynamic jump landed between boundaries).
func (n *Node) stepInstr(rec *record, out *vm.Outcome) {
	if rec.prog != nil {
		if fn := rec.prog.StepAt(rec.agent.PC); fn != nil {
			fn(rec.agent, n, out)
			return
		}
	}
	*out = vm.Step(rec.agent, n)
}

// engineStep runs the agent at the head of the run queue one instruction
// at a time. After each, the next step runs in place when the kernel
// admits its time (never under ExecStep) and is scheduled after the
// instruction's latency otherwise.
func (n *Node) engineStep() {
	n.busy = false
	out := &n.stepOut // the shard's scratch: engine steps never nest or overlap on one shard
	for n.life == NodeUp {
		// Skip agents that stopped being runnable while queued.
		for n.runq.Len() > 0 && n.runq.Head().state != AgentReady {
			n.dequeueHead()
		}
		if n.runq.Len() == 0 {
			return
		}
		rec := n.runq.Head()

		// Deliver one pending reaction firing at the instruction boundary:
		// save the PC on the stack so the agent can resume, push the
		// matched tuple, and jump to the reaction's code (§3.3).
		if rec.pendingCount() > 0 {
			if err := n.deliverFiring(rec, rec.popFiring()); err != nil {
				n.killAgent(rec, err)
				n.pump()
				return
			}
		}

		n.stepInstr(rec, out)
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
		n.applyEffect(rec, out)
		if poisonScratch {
			poison(n.scratch.Fields[:])
			poison(n.scratch.Hit[:])
		}

		// Context switch policy: rotate when the slice is exhausted or the
		// agent stopped being runnable ("if an agent executes a
		// long-running instruction ... the engine immediately switches
		// context", §3.2).
		if rec.state == AgentReady {
			rec.sliceUsed++
			if rec.sliceUsed >= DefaultSlice {
				n.runq.Rotate()
				n.runq.Tail().sliceUsed = 0
			}
		} else {
			if n.runq.Len() > 0 && n.runq.Head() == rec {
				n.dequeueHead() // a halted or killed agent's record is free from here on
			}
			if n.runq.Len() == 0 {
				return
			}
		}
		// The next step is due at now+Cost: run it in place only if
		// nothing else in the simulation is due first (otherwise it goes
		// through the scheduler and ordering is resolved there, exactly
		// as seeded).
		if n.cfg.Exec == ExecStep || !n.sim.RunLocal(n.sim.Now()+out.Cost) {
			n.busy = true
			n.sim.Schedule(out.Cost, n.stepFn)
			return
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
	fields, _, err := tuplespace.AppendFields(n.scratch.Hit[:0], f.tuple[:])
	if err != nil {
		return err
	}
	if err := a.PushFields(fields); err != nil {
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
		if n.trace.AgentHalted != nil {
			n.trace.AgentHalted(n.loc, rec.agent.ID)
		}
		n.reclaim(rec.agent.ID)

	case vm.EffectError:
		n.killAgent(rec, out.Err)

	case vm.EffectSleep:
		rec.state = AgentSleeping
		if !rec.wake.Bound() {
			// Bound at the record's first sleep and kept when the record is
			// recycled: the callback finds the mote through rec.host.
			rec.wake.Init(n.sim, func() { rec.host.onWake(rec) })
		}
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
		rec.blockTmpl.Fields = append(rec.blockTmpl.Fields[:0], out.Block.Fields...)
		rec.blockRemove = out.BlockRemove

	case vm.EffectMigrate:
		n.startMigration(rec, *out)

	case vm.EffectRemote:
		n.startRemote(rec, *out)
	}
}

// onWake ends rec's sleep.
func (n *Node) onWake(rec *record) {
	if rec.state == AgentSleeping {
		rec.state = AgentReady
		n.enqueue(rec)
	}
}

// killAgent reclaims an agent that died with err.
func (n *Node) killAgent(rec *record, err error) {
	rec.state = AgentDead
	n.agentDied(rec.agent.ID, err)
	n.reclaim(rec.agent.ID)
}

// agentDied reports the death of agent id on this mote: it is counted,
// and the trace hears of it with err.
func (n *Node) agentDied(id uint16, err error) {
	n.stats.AgentsDied++
	if n.trace.AgentDied != nil {
		n.trace.AgentDied(n.loc, id, err)
	}
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
