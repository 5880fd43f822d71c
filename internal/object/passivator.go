package object

import (
	"sort"

	"repro/internal/uid"
)

// PassivationReport summarises one passivation sweep.
type PassivationReport struct {
	// Passivated lists the objects whose servers were destroyed, sorted.
	Passivated []uid.UID
	// Busy counts instances skipped because they had active users.
	Busy int
}

// PassivateQuiescent implements the §2.3(3) behaviour: "an active copy of
// an object which is no longer in use will be said to be in a quiescent
// state; a quiescent object can passivate itself by destroying the
// server". It scans this node's activated instances and destroys every
// quiescent one. The caller (or a periodic daemon) decides the cadence;
// the naming and binding system needs no update because activation state
// is not recorded there — only Sv membership and use lists, which are
// already empty for a quiescent object.
func (m *Manager) PassivateQuiescent() PassivationReport {
	t := m.table()
	t.mu.Lock()
	defer t.mu.Unlock()
	var report PassivationReport
	for id, in := range t.m {
		in.mu.Lock()
		busy := len(in.actions) > 0
		in.mu.Unlock()
		if busy {
			report.Busy++
			continue
		}
		delete(t.m, id)
		if m.ghost != nil {
			m.ghost.Leave(GroupPrefix + id.String())
		}
		report.Passivated = append(report.Passivated, id)
	}
	sort.Slice(report.Passivated, func(i, j int) bool {
		return report.Passivated[i].String() < report.Passivated[j].String()
	})
	return report
}
