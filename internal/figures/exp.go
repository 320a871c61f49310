package figures

import (
	"fmt"

	"ptsbench/internal/core"
)

// ExpReport renders the results of a declarative experiment grid
// (`ptsbench exp`) as a Report, reusing the figure renderer and CSV
// writer: one summary table over all cells plus a throughput series per
// cell. results must be in cell order, as core.RunGrid returns them.
func ExpReport(name string, specs []core.Spec, results []*core.Result) *Report {
	if name == "" {
		name = "exp"
	}
	rep := &Report{
		ID:      "exp",
		Caption: fmt.Sprintf("declarative experiment grid %q (%d cells)", name, len(specs)),
	}
	summary := Table{
		Title: "Steady state per cell (final quarter)",
		Header: []string{"cell", "engine", "reads", "QD", "scale",
			"KOps/s", "WA-A", "WA-D", "space amp", "p99 read"},
	}
	for i, res := range results {
		spec := specs[i]
		if res == nil {
			continue
		}
		if res.OutOfSpace {
			rep.Notes = append(rep.Notes, spec.Name+" ran out of space")
			summary.Rows = append(summary.Rows, []string{
				spec.Name, spec.Engine.String(), fmt.Sprintf("%.0f%%", spec.ReadFraction*100),
				fmt.Sprintf("%d", spec.QueueDepth), fmt.Sprintf("%d", spec.Scale),
				"OOS", "OOS", "OOS", "OOS", "OOS",
			})
			continue
		}
		summary.Rows = append(summary.Rows, []string{
			spec.Name,
			spec.Engine.String(),
			fmt.Sprintf("%.0f%%", spec.ReadFraction*100),
			fmt.Sprintf("%d", spec.QueueDepth),
			fmt.Sprintf("%d", spec.Scale),
			fmt.Sprintf("%.2f", res.ScaledKOps),
			fmt.Sprintf("%.2f", res.Steady.WAA),
			fmt.Sprintf("%.2f", res.Steady.WAD),
			fmt.Sprintf("%.2f", res.SpaceAmp),
			res.Latency.P99.String(),
		})
		// Window adaptively: spec files sweep durations from smoke-test
		// minutes to paper-length hours, so a fixed 10-minute window
		// would leave short runs with an empty curve.
		window := len(res.Series.Samples) / 8
		if window < 1 {
			window = 1
		}
		if window > windowSamples {
			window = windowSamples
		}
		rep.Series = append(rep.Series, throughput("", window)(spec.Name, res))
	}
	rep.Tables = []Table{summary}
	return rep
}
