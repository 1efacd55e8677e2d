// Package analysis assembles the obfuslint suite: the static-analysis
// passes that machine-check the simulator's invariants (see each pass's
// package documentation, and the "Machine-checked invariants" section of
// DESIGN.md). The cmd/obfuslint driver and the repository-cleanliness
// integration test both consume the suite through All, so a new pass is
// wired into both by adding it here.
package analysis

import (
	"obfusmem/internal/analysis/framework"
	"obfusmem/internal/analysis/passes/determinism"
	"obfusmem/internal/analysis/passes/eventref"
	"obfusmem/internal/analysis/passes/hotpath"
	"obfusmem/internal/analysis/passes/metricnames"
	"obfusmem/internal/analysis/passes/secretflow"
	"obfusmem/internal/analysis/passes/wireonly"
)

// All returns the full obfuslint suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		determinism.Analyzer,
		eventref.Analyzer,
		hotpath.Analyzer,
		metricnames.Analyzer,
		secretflow.Analyzer,
		wireonly.Analyzer,
	}
}
