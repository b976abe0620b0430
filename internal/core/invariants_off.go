//go:build !godivainvariants

package core

// Without the godivainvariants build tag every invariant hook is an empty
// function the compiler inlines away, so production builds pay nothing for
// the checks (see invariants_on.go for what they verify).

// invariantsEnabled reports whether this binary was built with the
// godivainvariants tag.
const invariantsEnabled = false

func (db *DB) checkMemLocked(string) {}

func (db *DB) checkInvariantsLocked(string) {}

func (db *DB) checkTransitionLocked(*unit, unitState, unitState) {}

func checkStatsSnapshot(*Stats) {}

func poisonBuffer(*Buffer) {}
