package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// callee resolves the *types.Func a call invokes, or nil for calls the
// rules don't care about (function values, conversions, builtins).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	}
	return nil
}

// fromPkg reports whether f is a function from the package with the
// given import path.
func fromPkg(f *types.Func, path string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == path
}

// wallClockFuncs are the time-package entry points that read the host's
// wall clock or start host timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// walltime forbids wall-clock reads inside the kernel. Virtual time is
// the only clock a deterministic simulation may observe: two runs of the
// same seed must see identical timestamps, and a parallel run must see
// the same ones as a sequential run.
var walltime = &Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock time in kernel code; all time must derive " +
		"from the simulation clock (sim.Now / Ctx timestamps)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := callee(p.Info, call); fromPkg(fn, "time") && wallClockFuncs[fn.Name()] {
					p.Reportf(call.Pos(),
						"time.%s reads the wall clock; kernel code must use the simulation clock", fn.Name())
				}
				return true
			})
		}
	},
}

// simrand forbids the global math/rand source inside the kernel. The
// global source is process-wide mutable state: any draw perturbs every
// later draw, so an unrelated goroutine (or test ordering) changes the
// kernel's random sequence. Kernel randomness must come from the
// per-context streams sim.Stream derives from the seed; constructing a
// private source (rand.New, rand.NewSource) and calling methods on a
// *rand.Rand are therefore allowed.
var simrand = &Analyzer{
	Name: "simrand",
	Doc: "forbid the global math/rand source in kernel code; draw from " +
		"a per-context seeded stream (sim.Stream) instead",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := callee(p.Info, call)
				if !fromPkg(fn, "math/rand") && !fromPkg(fn, "math/rand/v2") {
					return true
				}
				// Methods have a receiver: those run on an explicit
				// source and are deterministic given the seed.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				if fn.Name() == "New" || fn.Name() == "NewSource" {
					return true
				}
				p.Reportf(call.Pos(),
					"rand.%s draws from the global math/rand source, which is shared process state; use a sim.Stream", fn.Name())
				return true
			})
		}
	},
}

// maprange flags ranging over maps in kernel code. Go randomizes map
// iteration order per run, so any map range whose body's effects are
// order-sensitive (event scheduling, accumulation into floats, slice
// append) silently breaks replay. Flagged sites either sort and get a
// justified suppression, or switch to an ordered container.
var maprange = &Analyzer{
	Name: "maprange",
	Doc: "flag map iteration in kernel code; iteration order is " +
		"randomized per process, so order-sensitive bodies break determinism",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := p.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						p.Reportf(rs.For,
							"map iteration order is nondeterministic; sort the keys first or use an ordered container")
					}
				}
				return true
			})
		}
	},
}

// gospawn flags go statements in kernel code. Scheduling belongs to the
// executor: a sharded run reproduces the one-shard event schedule exactly
// because the executor alone decides what runs concurrently. An
// ad-hoc goroutine racing the executor reintroduces host-scheduler
// nondeterminism.
var gospawn = &Analyzer{
	Name: "gospawn",
	Doc: "flag goroutine spawns in kernel code; concurrency belongs to " +
		"the sharded executor's worker pool, not ad-hoc go statements",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					p.Reportf(gs.Go,
						"goroutine spawned outside the executor's worker pool; kernel concurrency must go through the sharded executor")
				}
				return true
			})
		}
	},
}

// lockRank orders the kernel's documented lock classes: a shard's
// mailbox mutex is always acquired before the deployment-wide tracker /
// context-table mutex. Unknown mutexes rank -1 and are not checked.
func lockRank(typeName string) int {
	name := strings.ToLower(typeName)
	switch {
	case strings.Contains(name, "shard"):
		return 0
	case strings.Contains(name, "tracker"), strings.Contains(name, "ctxtable"):
		return 1
	}
	return -1
}

// lockEvent is one Lock/Unlock call in a function body, in source order.
type lockEvent struct {
	pos    int // token.Pos as int, for sorting
	node   ast.Node
	class  string // owning type's name, e.g. "shard", "agentTracker"
	unlock bool
}

// lockorder flags nested mutex acquisitions that invert the documented
// shard→tracker order. Shard workers hold their shard's mutex while
// reporting into the deployment-wide tracker; a path taking the tracker
// mutex first and a shard mutex second can deadlock against them. The
// check is a per-function linear scan: it sees `a.mu.Lock(); b.mu.Lock()`
// shapes, not acquisitions hidden behind calls — a linter for the known
// hazard, not a whole-program deadlock prover.
var lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "flag nested mutex acquisitions inverting the documented " +
		"shard→tracker lock order",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkLockOrder(p, fd.Body)
			}
		}
	},
}

func checkLockOrder(p *Pass, body *ast.BlockStmt) {
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		isLock := name == "Lock" || name == "RLock"
		isUnlock := name == "Unlock" || name == "RUnlock"
		if !isLock && !isUnlock {
			return true
		}
		if !isSyncMutex(p.Info.TypeOf(sel.X)) {
			return true
		}
		class := mutexOwner(p.Info, sel.X)
		if class == "" {
			return true
		}
		events = append(events, lockEvent{pos: int(call.Pos()), node: call, class: class, unlock: isUnlock})
		return true
	})
	// ast.Inspect visits in source order within a statement list, but
	// sort anyway so nested expressions cannot reorder events.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j-1].pos > events[j].pos; j-- {
			events[j-1], events[j] = events[j], events[j-1]
		}
	}
	var held []string
	for _, e := range events {
		if e.unlock {
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == e.class {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
			continue
		}
		for _, h := range held {
			hr, er := lockRank(h), lockRank(e.class)
			if hr >= 0 && er >= 0 && er < hr {
				p.Reportf(e.node.Pos(),
					"acquires %s's mutex while holding %s's: inverts the documented shard→tracker lock order", e.class, h)
			}
		}
		held = append(held, e.class)
	}
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// mutexOwner names the type holding the mutex field: for `sh.mu` it is
// sh's type name, so different instances of one struct share a lock
// class. Bare identifiers (a local or package-level mutex) use the
// identifier name.
func mutexOwner(info *types.Info, x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		t := info.TypeOf(e.X)
		if t == nil {
			return ""
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name()
		}
		return ""
	case *ast.Ident:
		return e.Name
	}
	return ""
}
