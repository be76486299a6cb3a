// Package determinism flags nondeterminism sources inside the solver,
// plan, generator and simulator packages. The differential oracle
// (internal/diffcheck) replays 1080 (seed,index) scenarios and asserts
// bit-identical results across the one-shot, batch and compiled-plan
// paths; the memo caches key canonical encodings of results; the paper's
// exactness claims are only checkable because the same inputs always take
// the same path. Three mechanical leaks can break that:
//
//  1. Ranging over a map where iteration order can reach result ordering,
//     candidate sets or accumulated floats (float addition does not
//     commute in round-off). Iterate a sorted key slice instead, or
//     suppress with a justification that the body is order-insensitive.
//  2. time.Now: wall-clock values in a solver path make results differ
//     run to run. Timing belongs to the service/benchmark layers.
//  3. The global math/rand source (rand.Intn, rand.Shuffle, ... without an
//     explicit rand.New(rand.NewSource(seed))): process-global state that
//     other goroutines advance, so (seed,index) no longer pins a scenario.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flags map iteration, time.Now and global math/rand use in the deterministic solver packages",
	Run:  run,
}

// deterministicPkgs are the packages whose outputs must be reproducible
// from explicit inputs alone: the solver core and algorithms, the
// instance model and evaluators, the compiled-plan layer and the memo
// its answers flow through, the scenario generator, the fault-injection layer (seeded fault schedules must
// replay identically), the replication machinery, the simulator and the
// verification harness. The service (server, batch) and reporting layers
// measure wall-clock time by design and are out of scope.
var deterministicPkgs = []string{
	"repro/internal/algo/",
	"repro/internal/chaos",
	"repro/internal/core",
	"repro/internal/diffcheck",
	"repro/internal/fmath",
	"repro/internal/gen",
	"repro/internal/general",
	"repro/internal/mapping",
	"repro/internal/memo",
	"repro/internal/npc",
	"repro/internal/pareto",
	"repro/internal/pipeline",
	"repro/internal/plan",
	"repro/internal/repl",
	"repro/internal/sim",
	"repro/internal/workload",
}

// inScope reports whether the package must be deterministic; fixtures (no
// repro/ prefix) are always in scope.
func inScope(path string) bool {
	if !strings.HasPrefix(path, "repro") {
		return true
	}
	for _, p := range deterministicPkgs {
		if path == p || strings.HasPrefix(path, p+"/") || (strings.HasSuffix(p, "/") && strings.HasPrefix(path, p)) {
			return true
		}
	}
	return false
}

// globalRandConstructors are the math/rand functions that build explicit
// sources/generators rather than consuming the process-global one.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypesInfo.Types[n.X].Type
				if t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(n.Range,
							"map iteration order is randomized per run and can leak into result ordering or float accumulation; iterate a sorted key slice (or //lint:allow determinism <why order cannot matter>)")
					}
				}
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkg.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" {
			pass.Reportf(sel.Pos(),
				"time.Now in a deterministic solver package: results would differ run to run; timing belongs to the service and benchmark layers")
		}
	case "math/rand", "math/rand/v2":
		if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
			return
		}
		if globalRandConstructors[sel.Sel.Name] {
			return
		}
		pass.Reportf(sel.Pos(),
			"%s.%s draws from the process-global random source, which other goroutines advance; use an explicit rand.New(rand.NewSource(seed)) so (seed,index) pins the scenario",
			pkg.Name(), sel.Sel.Name)
	}
}
