package repro

import (
	"repro/internal/baseline"
	"repro/internal/core"
)

// CoreManager returns the core.Manager behind a machine's policy — the
// steering, prefetch, oracle and full-reconfig policies have one — or
// nil.
func CoreManager(m *Machine) *core.Manager {
	switch mg := m.proc.Manager().(type) {
	case *baseline.Steering:
		return mg.M
	case interface{ Core() *core.Manager }:
		return mg.Core()
	}
	return nil
}
