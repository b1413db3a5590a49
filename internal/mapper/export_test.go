package mapper

import (
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// Test-only exports for the tests in package mapper_test, which import
// albireo (itself an importer of this package) to search real Albireo
// instances next to the photonic test architecture.

// PhotonicTestArch is photonicTestArch.
var PhotonicTestArch = photonicTestArch

// OuterSeeds returns the trivial all-outer mapping of every spatial
// assignment of the session's architecture: a deterministic seed list for
// architectures without canonical schedules.
func OuterSeeds(s *Session, l *workload.Layer) []*mapping.Mapping {
	out := make([]*mapping.Mapping, len(s.assignments))
	for i, assign := range s.assignments {
		out[i] = outerMapping(s.a, l, assign, s.minLv)
	}
	return out
}

// Oracle returns o with the oracle sampler switched on.
func Oracle(o Options) Options {
	o.oracle = true
	return o
}
