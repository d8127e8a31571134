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

// Finding is one analysis result (its byte address, instruction,
// severity and message) plus Pos, its position on the authoring surface:
// source line for parsed programs, build step for built ones, program
// counter for byte-loaded ones.
type Finding struct {
	vm.Finding
	Pos string
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

// AnalysisReport is the result of analyzing one program: the analyzer's
// own report — EnergyBoundNJ and EnergyBoundJ (the worst case any single
// wakeful burst can draw, valid unless EnergyUnbounded), BurstEntries,
// the HeapWritten/HeapRead slot masks, the verifier's MaxStackDepth and
// MayOverflow, HasErrors — with its findings and the cause of an
// unbounded draw positioned on the authoring surface.
type AnalysisReport struct {
	vm.AnalysisReport
	// Findings are the analyzer's findings, each with its Pos, most
	// severe first, then by address.
	Findings []Finding
	// UnboundedPos locates the cause when EnergyUnbounded is set.
	UnboundedPos string
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
	vrep, _ := vm.Analyze(p.unit.Code, costs)

	rep := AnalysisReport{AnalysisReport: vrep}
	if vrep.EnergyUnbounded {
		rep.UnboundedPos = p.pos(vrep.UnboundedPC)
	}
	for _, f := range vrep.Findings {
		rep.Findings = append(rep.Findings, Finding{Finding: f, Pos: p.pos(f.PC)})
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
