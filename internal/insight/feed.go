package insight

import (
	"toss/internal/migrate"
	"toss/internal/simtime"
)

// IngestMigrate records a migration engine's activity for the epoch ending
// at virtual time at, as deltas between two Stats snapshots: moves, moved
// pages, and daemon busy milliseconds.
func (st *Store) IngestMigrate(at simtime.Duration, prev, cur migrate.Stats) {
	if st == nil {
		return
	}
	st.Observe("migrate.moves", at, float64(cur.Moves()-prev.Moves()))
	st.Observe("migrate.moved_pages", at, float64(cur.MovedPages-prev.MovedPages))
	st.Observe("migrate.busy_ms", at, float64(cur.BusyTime-prev.BusyTime)/float64(simtime.Millisecond))
}
