// Package study is the experiment harness: it sweeps model parameters,
// runs replicated simulations for every sweep point, and assembles the
// series behind each figure of the paper — the Möbius "Study/Experiment"
// layer. The three paper studies (Sections 4.1–4.3) are pre-canned, along
// with the cross-validation and ablation experiments listed in DESIGN.md.
package study

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ituaval/internal/sim"
)

// Config controls simulation effort and fault-tolerance policy for all
// studies.
type Config struct {
	// Reps is the number of replications per sweep point (default 2000).
	// With a precision target set (TargetRelHW or TargetAbsHW) it is the
	// *initial* batch instead, and the sweep point grows geometrically from
	// there until the target is met or MaxReps is hit.
	Reps int
	// Seed is the root seed (default 1).
	Seed uint64
	// Workers bounds parallelism (0 = all cores).
	Workers int
	// RepDeadline, when positive, is the per-replication wall-clock
	// watchdog forwarded to sim.Spec: a hung replication becomes a recorded
	// failure instead of wedging the sweep.
	RepDeadline time.Duration
	// MaxFailureFrac is forwarded to sim.Spec.MaxFailureFrac (0 = the sim
	// package default): the fraction of replications per point allowed to
	// fail before the point — and so the study — errors out.
	MaxFailureFrac float64
	// TargetRelHW, when positive, switches every sweep point to sequential
	// precision mode: replications grow geometrically from Reps until every
	// measure's 95% half-width (a CRN pair's paired deltas') falls to
	// TargetRelHW·|mean| (or AbsHW, whichever is met first), bounded by
	// MaxReps. See RunSweep.
	TargetRelHW float64
	// TargetAbsHW, when positive, is the absolute 95% half-width target of
	// precision mode (combinable with TargetRelHW; either met suffices).
	TargetAbsHW float64
	// MaxReps bounds the replication count of a sweep point in precision
	// mode (default 16·Reps; at least Reps). Ignored without a target.
	MaxReps int
	// Checkpoint, when non-nil, records every completed sweep point and
	// skips points it already holds, making interrupted studies resumable
	// with bit-identical results (seeds are derived per point and per
	// replication from the root seed).
	Checkpoint *Checkpoint
	// Warnf, when non-nil, receives warnings such as per-point replication
	// failures that stayed under the tolerated fraction. Nil discards them.
	Warnf func(format string, args ...any)
}

func (c Config) warnf(format string, args ...any) {
	if c.Warnf != nil {
		c.Warnf(format, args...)
	}
}

// precisionMode reports whether sweep points run under a sequential
// half-width target.
func (c Config) precisionMode() bool { return c.TargetRelHW > 0 || c.TargetAbsHW > 0 }

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.precisionMode() && c.MaxReps <= 0 {
		c.MaxReps = 16 * c.Reps
	}
	return c
}

// PointResult is everything a sweep point contributes to a figure: the
// named estimates plus the replication accounting behind them. It is the
// unit of checkpointing, so resuming an interrupted sweep restores counts
// as well as values.
type PointResult struct {
	// Est maps reward-variable names to their estimates.
	Est map[string]sim.Estimate `json:"est"`
	// Reps is the number of replications requested (after any sequential
	// growth); Completed+Failed+Skipped == Reps. For a paired point the
	// counts sum both configurations.
	Reps      int `json:"reps"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Skipped   int `json:"skipped"`
}

// Series is one curve of a figure panel. The count slices are parallel to
// X: N is the per-point observation count behind Y (replications that
// emitted a value), and Reps/Completed/Failed/Skipped account for every
// replication the point requested.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	HW   []float64 // 95% confidence half-widths
	N    []int64   // observations behind each Y
	// Replication accounting per point (see PointResult).
	Reps      []int
	Completed []int
	Failed    []int
	Skipped   []int
}

// Panel is one sub-figure: a measure plotted over the sweep variable.
type Panel struct {
	ID      string // e.g. "3a"
	Measure string // e.g. "Unavailability for first 5 hours"
	XLabel  string
	Series  []Series
}

// Figure groups the panels of one paper figure. Notes carries free-text
// observations computed from the sweep (for example crossover locations in
// the paired exclusion-policy study).
type Figure struct {
	ID     string
	Title  string
	Panels []Panel
	Notes  []string
}

func intAt(v []int, i int) int {
	if i < len(v) {
		return v[i]
	}
	return 0
}

func int64At(v []int64, i int) int64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

// writeTable renders one aligned table of the panel, with cell contents
// supplied per series and point.
func writeTable(b *strings.Builder, p Panel, width int, cell func(s Series, i int) string) {
	fmt.Fprintf(b, "%12s", p.XLabel)
	for _, s := range p.Series {
		fmt.Fprintf(b, " %*s", width, s.Name)
	}
	b.WriteByte('\n')
	if len(p.Series) == 0 {
		return
	}
	for i := range p.Series[0].X {
		fmt.Fprintf(b, "%12g", p.Series[0].X[i])
		for _, s := range p.Series {
			fmt.Fprintf(b, " %*s", width, cell(s, i))
		}
		b.WriteByte('\n')
	}
}

// WriteText renders the figure as aligned text tables: per panel the
// estimates with half-widths and observation counts, followed by the
// replication accounting (completed/failed/skipped of requested) for every
// sweep point.
func (f *Figure) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure %s: %s ==\n", f.ID, f.Title)
	for _, p := range f.Panels {
		fmt.Fprintf(&b, "\n-- %s: %s --\n", p.ID, p.Measure)
		writeTable(&b, p, 30, func(s Series, i int) string {
			return fmt.Sprintf("%10.5f ±%7.5f n=%-6d", s.Y[i], s.HW[i], int64At(s.N, i))
		})
		b.WriteString("   replications per point (completed/failed/skipped of requested):\n")
		writeTable(&b, p, 30, func(s Series, i int) string {
			return fmt.Sprintf("%d/%d/%d of %d",
				intAt(s.Completed, i), intAt(s.Failed, i), intAt(s.Skipped, i), intAt(s.Reps, i))
		})
	}
	if len(f.Notes) > 0 {
		b.WriteString("\nnotes:\n")
		for _, n := range f.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the figure as CSV:
// figure,panel,series,x,y,hw,n,reps,completed,failed,skipped.
func (f *Figure) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("figure,panel,series,x,y,hw,n,reps,completed,failed,skipped\n")
	for _, p := range f.Panels {
		for _, s := range p.Series {
			for i := range s.X {
				fmt.Fprintf(&b, "%s,%s,%q,%g,%g,%g,%d,%d,%d,%d,%d\n",
					f.ID, p.ID, s.Name, s.X[i], s.Y[i], s.HW[i], int64At(s.N, i),
					intAt(s.Reps, i), intAt(s.Completed, i), intAt(s.Failed, i), intAt(s.Skipped, i))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// newPointResult wraps simulation results as a sweep point.
func newPointResult(res *sim.Results) *PointResult {
	est := make(map[string]sim.Estimate, len(res.Estimates))
	for _, e := range res.Estimates {
		est[e.Name] = e
	}
	return &PointResult{Est: est, Reps: res.Reps,
		Completed: res.Completed, Failed: res.Failed, Skipped: res.Skipped}
}

// appendCell pushes one fully specified point onto a series.
func appendCell(s *Series, x, y, hw float64, n int64, reps, completed, failed, skipped int) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.HW = append(s.HW, hw)
	s.N = append(s.N, n)
	s.Reps = append(s.Reps, reps)
	s.Completed = append(s.Completed, completed)
	s.Failed = append(s.Failed, failed)
	s.Skipped = append(s.Skipped, skipped)
}

// AppendPoint appends the named measure of pr, at abscissa x, to the
// series, carrying the point's replication accounting along. The
// registered figure runners and the scenario compiler (internal/scenario)
// both assemble their figures with it.
func AppendPoint(s *Series, x float64, name string, pr *PointResult) {
	e := pr.Est[name]
	appendCell(s, x, e.Mean, e.HalfWidth95, e.N, pr.Reps, pr.Completed, pr.Failed, pr.Skipped)
}
