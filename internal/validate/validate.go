package validate

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"

	"memento/internal/experiments"
	"memento/internal/stats"
)

// Kind selects how a target's measured value is compared against the
// paper's.
type Kind int

const (
	// Point passes when the measured value lies within the tolerance band
	// around PaperValue (closed boundaries).
	Point Kind = iota
	// UpperBound passes when measured <= PaperValue + Tolerance.Abs.
	UpperBound
	// LowerBound passes when measured >= PaperValue - Tolerance.Abs.
	LowerBound
)

// String returns the scorecard wire name of the kind.
func (k Kind) String() string {
	switch k {
	case UpperBound:
		return "upper-bound"
	case LowerBound:
		return "lower-bound"
	default:
		return "point"
	}
}

// Tolerance is a symmetric band around a Point target (or the one-sided
// slack of a bound target). Both fields may be set; the effective band of
// a Point target is the wider of the two. Both zero means exact equality
// is required — almost always a registry mistake for float targets.
type Tolerance struct {
	// Abs is the band half-width in the target's own unit.
	Abs float64 `json:"abs,omitempty"`
	// Rel is the band half-width as a fraction of |PaperValue|. It is
	// meaningless (zero-width) when PaperValue is 0; use Abs there.
	Rel float64 `json:"rel,omitempty"`
}

// band returns the effective half-width for a paper value.
func (t Tolerance) band(paper float64) float64 {
	b := t.Abs
	if r := t.Rel * math.Abs(paper); r > b {
		b = r
	}
	return b
}

// Target is one machine-checkable paper claim.
type Target struct {
	// ID is the stable scorecard key ("fig8-func-avg").
	ID string
	// Group places the target in one EXPERIMENTS.md section.
	Group string
	// Section cites the paper ("§6.2 Fig 8").
	Section string
	// Claim is the paper's statement of the value, human-phrased.
	Claim string
	// Unit controls rendering: UnitShare (fractions shown as percent),
	// UnitSpeedup (ratios shown as 1.151x), UnitRatio (plain ratio).
	Unit string
	// Kind selects point-in-band or one-sided comparison.
	Kind Kind
	// PaperValue is the paper's number in the target's unit.
	PaperValue float64
	// Tolerance is the pass band around (or slack beyond) PaperValue.
	Tolerance Tolerance
	// ScaleSensitive marks targets whose divergence is a documented
	// artifact of the 1/100 trace scale; they are reported, never gate.
	ScaleSensitive bool
	// Note explains tolerances and known divergences, rendered next to
	// the row in EXPERIMENTS.md.
	Note string
	// Extract pulls the measured value (and the per-workload samples a
	// CI is bootstrapped from) out of the shared suite.
	Extract func(*experiments.Suite) (experiments.Metric, error)
}

// Rendering units.
const (
	UnitShare   = "share"   // fraction in [0,1], rendered as percent
	UnitSpeedup = "speedup" // baseline/memento cycle ratio, rendered as 1.151x
	UnitRatio   = "ratio"   // plain ratio, rendered with three decimals
)

// Verdict is one evaluated target.
type Verdict struct {
	Target   Target
	Measured float64
	// CI is the deterministic 95% bootstrap interval over the target's
	// per-workload samples; nil when the measurement has no sample set
	// (bounds, single-workload measurements).
	CI *stats.CI
	// Pass reports whether the measured value satisfies the band. Always
	// evaluated, even for scale-sensitive targets (Gating distinguishes).
	Pass bool
	// Gating is !Target.ScaleSensitive: only gating verdicts decide the
	// scorecard's exit status.
	Gating bool
	// Reason says why the verdict failed (empty on pass).
	Reason string
}

// Evaluate compares a measurement against a target. It is pure: the same
// target and metric always produce the same verdict, including the CI
// (seeded from the target ID).
func Evaluate(t Target, m experiments.Metric) Verdict {
	v := Verdict{Target: t, Measured: m.Value, Gating: !t.ScaleSensitive}
	if len(m.Samples) >= 2 {
		ci := stats.BootstrapMeanCI(m.Samples, 0.95, 2000, seedFor(t.ID))
		v.CI = &ci
	}
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		v.Pass = false
		v.Reason = fmt.Sprintf("measured value is %v", m.Value)
		return v
	}
	band := t.Tolerance.band(t.PaperValue)
	switch t.Kind {
	case UpperBound:
		v.Pass = m.Value <= t.PaperValue+t.Tolerance.Abs
		if !v.Pass {
			v.Reason = fmt.Sprintf("measured %.4g exceeds bound %.4g", m.Value, t.PaperValue+t.Tolerance.Abs)
		}
	case LowerBound:
		v.Pass = m.Value >= t.PaperValue-t.Tolerance.Abs
		if !v.Pass {
			v.Reason = fmt.Sprintf("measured %.4g below bound %.4g", m.Value, t.PaperValue-t.Tolerance.Abs)
		}
	default:
		v.Pass = math.Abs(m.Value-t.PaperValue) <= band
		if !v.Pass {
			v.Reason = fmt.Sprintf("measured %.4g outside %.4g ± %.4g", m.Value, t.PaperValue, band)
		}
	}
	return v
}

// seedFor derives the deterministic bootstrap seed from a target ID.
func seedFor(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// Scorecard is the full evaluated registry.
type Scorecard struct {
	Verdicts []Verdict
}

// Run evaluates every registry target against the suite. The suite's
// cached sweeps are shared across targets, so the whole scorecard costs
// one workload sweep plus the cold-start/Mallacc/iso-storage studies. The
// sweeps are primed under ctx and the context is re-checked before each
// target's extractor, so an interrupted validation returns ctx.Err()
// promptly instead of running the full registry.
func Run(ctx context.Context, s *experiments.Suite) (Scorecard, error) {
	if err := s.Prime(ctx); err != nil {
		return Scorecard{}, fmt.Errorf("validate: %w", err)
	}
	return runTargets(ctx, s, Targets())
}

// runTargets evaluates an explicit target list (registry order is
// preserved in the scorecard).
func runTargets(ctx context.Context, s *experiments.Suite, targets []Target) (Scorecard, error) {
	var sc Scorecard
	for _, t := range targets {
		if err := ctx.Err(); err != nil {
			return sc, fmt.Errorf("validate: %s: %w", t.ID, err)
		}
		m, err := t.Extract(s)
		if err != nil {
			return sc, fmt.Errorf("validate: %s: %w", t.ID, err)
		}
		sc.Verdicts = append(sc.Verdicts, Evaluate(t, m))
	}
	return sc, nil
}

// Pass reports whether every gating target passed.
func (sc Scorecard) Pass() bool {
	for _, v := range sc.Verdicts {
		if v.Gating && !v.Pass {
			return false
		}
	}
	return true
}

// Counts summarizes the scorecard.
func (sc Scorecard) Counts() (total, gating, passed, failed, informational int) {
	for _, v := range sc.Verdicts {
		total++
		if !v.Gating {
			informational++
			continue
		}
		gating++
		if v.Pass {
			passed++
		} else {
			failed++
		}
	}
	return
}

// Summary is the one-line badge form: "validate: 32/32 paper targets
// pass (5 informational scale-sensitive rows)".
func (sc Scorecard) Summary() string {
	_, gating, passed, failed, info := sc.Counts()
	s := fmt.Sprintf("validate: %d/%d paper targets pass", passed, gating)
	if failed > 0 {
		s = fmt.Sprintf("validate: %d/%d paper targets FAIL", failed, gating)
	}
	return fmt.Sprintf("%s (%d informational scale-sensitive rows)", s, info)
}

// verdictWire is the stable scorecard JSON row. Field names are the
// contract; do not rename.
type verdictWire struct {
	ID             string    `json:"id"`
	Section        string    `json:"section"`
	Claim          string    `json:"claim"`
	Unit           string    `json:"unit"`
	Kind           string    `json:"kind"`
	Paper          float64   `json:"paper"`
	Tolerance      Tolerance `json:"tolerance"`
	ScaleSensitive bool      `json:"scale_sensitive"`
	Measured       float64   `json:"measured"`
	CI             *stats.CI `json:"ci,omitempty"`
	Pass           bool      `json:"pass"`
	Gating         bool      `json:"gating"`
	Reason         string    `json:"reason,omitempty"`
	Note           string    `json:"note,omitempty"`
}

// scorecardWire is the stable scorecard JSON document.
type scorecardWire struct {
	Summary struct {
		Total         int    `json:"total"`
		Gating        int    `json:"gating"`
		Passed        int    `json:"passed"`
		Failed        int    `json:"failed"`
		Informational int    `json:"informational"`
		Pass          bool   `json:"pass"`
		Line          string `json:"line"`
	} `json:"summary"`
	Targets []verdictWire `json:"targets"`
}

// WriteJSON writes the scorecard in its stable wire form. The output is
// deterministic: no timestamps, no map iteration, shortest-form floats.
func (sc Scorecard) WriteJSON(w io.Writer) error {
	var doc scorecardWire
	doc.Summary.Total, doc.Summary.Gating, doc.Summary.Passed, doc.Summary.Failed, doc.Summary.Informational = sc.Counts()
	doc.Summary.Pass = sc.Pass()
	doc.Summary.Line = sc.Summary()
	doc.Targets = []verdictWire{}
	for _, v := range sc.Verdicts {
		doc.Targets = append(doc.Targets, verdictWire{
			ID:             v.Target.ID,
			Section:        v.Target.Section,
			Claim:          v.Target.Claim,
			Unit:           v.Target.Unit,
			Kind:           v.Target.Kind.String(),
			Paper:          v.Target.PaperValue,
			Tolerance:      v.Target.Tolerance,
			ScaleSensitive: v.Target.ScaleSensitive,
			Measured:       v.Measured,
			CI:             v.CI,
			Pass:           v.Pass,
			Gating:         v.Gating,
			Reason:         v.Reason,
			Note:           v.Target.Note,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTable renders the human scorecard: one aligned row per target,
// failures marked, the badge line last.
func (sc Scorecard) WriteTable(w io.Writer) error {
	rows := [][]string{{"status", "target", "paper", "measured", "95% CI", "band", "section"}}
	for _, v := range sc.Verdicts {
		status := "pass"
		if !v.Pass {
			status = "FAIL"
		}
		if !v.Gating {
			status = "info"
		}
		ci := ""
		if v.CI != nil {
			ci = formatCI(v.Target.Unit, *v.CI)
		}
		rows = append(rows, []string{
			status, v.Target.ID,
			formatValue(v.Target.Unit, v.Target.PaperValue),
			formatValue(v.Target.Unit, v.Measured),
			ci,
			formatBand(v.Target),
			v.Target.Section,
		})
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, r := range rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n" + sc.Summary() + "\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a value in the target's unit.
func formatValue(unit string, v float64) string {
	switch unit {
	case UnitShare:
		return fmt.Sprintf("%.1f%%", 100*v)
	case UnitSpeedup:
		return fmt.Sprintf("%.3fx", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// formatCI renders an interval in the target's unit.
func formatCI(unit string, ci stats.CI) string {
	return fmt.Sprintf("[%s, %s]", formatValue(unit, ci.Lo), formatValue(unit, ci.Hi))
}

// formatBand renders a target's pass criterion compactly.
func formatBand(t Target) string {
	switch t.Kind {
	case UpperBound:
		return fmt.Sprintf("<= %s", formatValue(t.Unit, t.PaperValue+t.Tolerance.Abs))
	case LowerBound:
		return fmt.Sprintf(">= %s", formatValue(t.Unit, t.PaperValue-t.Tolerance.Abs))
	default:
		parts := []string{}
		if t.Tolerance.Abs > 0 {
			switch t.Unit {
			case UnitShare:
				parts = append(parts, fmt.Sprintf("±%.1f pt", 100*t.Tolerance.Abs))
			default:
				parts = append(parts, fmt.Sprintf("±%.3g", t.Tolerance.Abs))
			}
		}
		if t.Tolerance.Rel > 0 {
			parts = append(parts, fmt.Sprintf("±%.1f%% rel", 100*t.Tolerance.Rel))
		}
		if len(parts) == 0 {
			return "exact"
		}
		return strings.Join(parts, " / ")
	}
}
