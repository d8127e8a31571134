package program

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/agilla-go/agilla/internal/vm"
)

// The public face of the static dataflow and energy analysis
// (internal/vm.Analyze). Where verification answers "can this program
// corrupt the VM?", analysis answers the two admission questions the
// paper's resource story needs: "is this agent well-typed?" (operand
// kinds through the stack and heap, reads of never-written heap slots,
// dead code, unreachable reactions) and "can this agent's energy draw be
// bounded?" (a static worst-case per-burst energy figure folded over the
// control-flow graph). Network.Launch consults the same analysis when an
// admission budget is configured (agilla.WithAdmissionBudget), and
// `agilla vet` prints it for .asm files, bytecode, and library agents.

// ErrAnalyze is wrapped by Analyze-level rejections: a program whose
// analysis produced error findings.
var ErrAnalyze = errors.New("program: analysis failed")

// Severity classifies a finding.
type Severity = vm.Severity

// Severities.
const (
	// SevWarning marks suspicious but survivable programs: dead code,
	// unreachable reactions, an unbounded energy draw.
	SevWarning = vm.SevWarning
	// SevError marks guaranteed runtime deaths or reads of never-written
	// state.
	SevError = vm.SevError
)

// Finding is one analysis result, positioned by the authoring surface:
// source line for parsed programs, build step for built ones, program
// counter for byte-loaded ones.
type Finding struct {
	// PC is the byte address of the offending instruction; Pos the
	// human-readable position; Op the instruction's mnemonic.
	PC  int
	Pos string
	Op  string
	// Severity and Msg describe the defect.
	Severity Severity
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s): %s", f.Severity, f.Pos, f.Op, f.Msg)
}

// EnergyCosts configures the per-instruction energy figures Analyze
// folds over the control-flow graph, in integer nanojoules: InstrNJ per
// executed instruction, SenseNJ per sensor sample, SendNJ per
// transmitted frame plus SendByteNJ per payload byte (migrations carry
// the code; remote operations a template). The zero value selects the
// MICA2 calibration the deployment energy model defaults to
// (agilla.WithEnergy's DefaultEnergyModel).
type EnergyCosts = vm.EnergyCosts

// AnalysisReport is the result of analyzing one program.
type AnalysisReport struct {
	// Findings holds every dataflow finding, most severe first, then by
	// position.
	Findings []Finding

	// EnergyBoundNJ is the worst-case energy, in nanojoules, any single
	// wakeful burst (the instructions run between two yield points:
	// sleep, wait, migration, a remote operation, or a blocking read)
	// can draw. Valid when EnergyUnbounded is false.
	EnergyBoundNJ uint64
	// EnergyUnbounded reports that no finite per-burst bound exists —
	// some loop never yields, or dynamic control flow defeats the
	// analysis; UnboundedPos locates the cause.
	EnergyUnbounded bool
	UnboundedPos    string

	// BurstEntries lists the byte addresses where a wakeful burst can
	// begin: program start, reaction entries, yield continuations, and
	// blocking-read retry points.
	BurstEntries []int

	// HeapWritten and HeapRead are bitmasks of the heap slots some
	// reachable instruction writes / reads.
	HeapWritten, HeapRead uint16

	// MaxStackDepth and MayOverflow restate the verifier's stack
	// analysis for one-stop admission decisions.
	MaxStackDepth int
	MayOverflow   bool
}

// EnergyBoundJ is the per-burst bound in joules.
func (r AnalysisReport) EnergyBoundJ() float64 { return float64(r.EnergyBoundNJ) / 1e9 }

// HasErrors reports whether any SevError finding exists.
func (r AnalysisReport) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return true
		}
	}
	return false
}

// Err joins the SevError findings, wrapped in ErrAnalyze; nil if the
// program is admissible.
func (r AnalysisReport) Err() error {
	var errs []error
	for _, f := range r.Findings {
		if f.Severity == SevError {
			errs = append(errs, errors.New(f.String()))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrAnalyze, errors.Join(errs...))
}

// String renders the report the way `agilla vet` prints it: the energy
// and stack summary, then one line per finding.
func (r AnalysisReport) String() string {
	var sb strings.Builder
	if r.EnergyUnbounded {
		fmt.Fprintf(&sb, "energy: unbounded (%s)", r.UnboundedPos)
	} else {
		fmt.Fprintf(&sb, "energy: ≤%.1f µJ per burst (%d entries)", float64(r.EnergyBoundNJ)/1e3, len(r.BurstEntries))
	}
	fmt.Fprintf(&sb, ", stack ≤%d", r.MaxStackDepth)
	if r.MayOverflow {
		sb.WriteString(" (may overflow on data-dependent paths)")
	}
	for _, f := range r.Findings {
		sb.WriteByte('\n')
		sb.WriteString(f.String())
	}
	return sb.String()
}

// Analyze runs the static dataflow and energy analysis on a verified
// program with the default MICA2 energy calibration. Use
// AnalyzeWithCosts to match a deployment's configured energy model.
func Analyze(p *Program) AnalysisReport {
	return AnalyzeWithCosts(p, EnergyCosts{})
}

// AnalyzeWithCosts is Analyze with explicit energy figures (typically
// the deployment's model, as Launch admission uses).
func AnalyzeWithCosts(p *Program, costs EnergyCosts) AnalysisReport {
	// The program already passed Verify, so the analysis cannot fail at
	// the verification layer; error findings are carried in the report.
	if costs == (EnergyCosts{}) {
		costs = vm.DefaultEnergyCosts()
	}
	vrep, _ := vm.Analyze(p.code, costs)

	rep := AnalysisReport{
		EnergyBoundNJ:   vrep.EnergyBoundNJ,
		EnergyUnbounded: vrep.EnergyUnbounded,
		BurstEntries:    vrep.BurstEntries,
		HeapWritten:     vrep.HeapWritten,
		HeapRead:        vrep.HeapRead,
		MaxStackDepth:   vrep.MaxStackDepth,
		MayOverflow:     vrep.MayOverflow,
	}
	if vrep.EnergyUnbounded {
		rep.UnboundedPos = p.pos(vrep.UnboundedPC)
	}
	for _, f := range vrep.Findings {
		rep.Findings = append(rep.Findings, Finding{
			PC:       f.PC,
			Pos:      p.pos(f.PC),
			Op:       f.Op.String(),
			Severity: f.Severity,
			Msg:      f.Msg,
		})
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		return a.PC < b.PC
	})
	return rep
}

// Analyze runs the static dataflow and energy analysis on the program
// with the default energy calibration; see the package-level Analyze.
func (p *Program) Analyze() AnalysisReport { return Analyze(p) }
