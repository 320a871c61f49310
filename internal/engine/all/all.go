// Package all registers every built-in engine driver with the registry
// in internal/engine, the way database/sql users import driver packages
// for their side effects. Packages that resolve engines by name at run
// time (internal/figures, command binaries, tests) blank-import it;
// packages that already import a concrete engine get that engine's
// registration for free from its own init.
package all

import (
	// Each engine package self-registers its driver from init.
	_ "ptsbench/internal/betree"
	_ "ptsbench/internal/btree"
	_ "ptsbench/internal/lsm"
)
