package lint

import (
	"go/token"
	"go/types"
	"sort"
)

// deterministicPackages are the module-relative directories whose results
// must be a pure function of their inputs and seeds: the parallel kernels'
// bit-identical guarantee (PR 1), the fault injector's replayability
// (PR 2) and the serving layer's breaker/shed transitions (PR 5) all
// collapse if these packages consult ambient state. internal/serve gets
// its time exclusively through an injected apiserver.Clock, which is why
// its chaos traces replay bit-identically at a fixed seed.
var deterministicPackages = map[string]bool{
	"internal/ecosystem": true,
	"internal/graph":     true,
	"internal/community": true,
	"internal/metrics":   true,
	"internal/stats":     true,
	"internal/snapshot":  true,
	"internal/dynamics":  true,
	"internal/predict":   true,
	"internal/serve":     true,
	"internal/index":     true,
	// The fleet's lease expiry and the front's probe pacing both run on
	// injected clocks; a wall-clock read here would make lease reclaim
	// schedules — and thus chaos replays — nondeterministic.
	"internal/fleet":       true,
	"internal/fleet/front": true,
}

// allowedRandFuncs are math/rand package-level constructors that build
// seeded generators instead of drawing from the global stream.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// bannedTimeFuncs read the wall clock.
var bannedTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// bannedOSFuncs read the process environment.
var bannedOSFuncs = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
}

// AnalyzerDeterminism bans ambient-state reads — wall clocks, environment
// variables, and the global math/rand stream — inside the deterministic
// packages. Seeded generators (rand.New(rand.NewSource(seed))) and
// *rand.Rand methods stay legal, as does everything in _test.go files
// (which are never loaded). The documented escape hatch for code that
// genuinely needs wall time is an injected clock in the style of
// apiserver.Options.Clock: accept a func() time.Time (or a small Clock
// interface) from the caller, and let main wire in time.Now. The analyzer
// flags references, not just calls, so assigning time.Now as a default
// inside a deterministic package is caught too.
var AnalyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc:  "ban time.Now/os.Getenv/global math/rand in deterministic packages",
	Run:  runDeterminism,
}

func runDeterminism(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.Packages {
		if !deterministicPackages[pkg.Rel] {
			continue
		}
		// Info.Uses iterates in map order; Run sorts the final list.
		idents := make([]identUse, 0, 16)
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				continue // methods (e.g. (*rand.Rand).Intn) are seeded state
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[fn.Name()] {
					idents = append(idents, identUse{id.Pos(), "time." + fn.Name(),
						"reads the wall clock; inject a clock from the caller (see apiserver.Options.Clock)"})
				}
			case "os":
				if bannedOSFuncs[fn.Name()] {
					idents = append(idents, identUse{id.Pos(), "os." + fn.Name(),
						"reads the process environment; thread configuration through parameters"})
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					idents = append(idents, identUse{id.Pos(), "rand." + fn.Name(),
						"draws from the global random stream; use a seeded rand.New(rand.NewSource(seed))"})
				}
			}
		}
		sort.Slice(idents, func(i, j int) bool { return idents[i].pos < idents[j].pos })
		for _, u := range idents {
			out = append(out, m.diag("determinism", u.pos,
				"%s in deterministic package %s %s", u.name, pkg.Rel, u.why))
		}
	}
	return out
}

type identUse struct {
	pos  token.Pos
	name string
	why  string
}
