package vizql

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"vizq/internal/core"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
)

// Session is one user's live view of a dashboard: current selections, quick
// filter states and rendered zone results. Interactions mark zones dirty;
// Render processes the resulting query batches iteration by iteration
// (Sect. 3.3).
type Session struct {
	dash *Dashboard
	proc *core.Processor

	selections map[string][]storage.Value // chart zone -> selected action values
	quick      map[string][]storage.Value // quick filter zone -> checked values
	results    map[string]*exec.Result
	dirty      map[string]bool
}

// RenderReport describes one Render call.
type RenderReport struct {
	Iterations  int
	BatchSizes  []int
	Elapsed     time.Duration
	ZonesDrawn  int
	Invalidated []string // selections dropped because their value vanished
}

// NewSession opens a dashboard over a processor.
func NewSession(d *Dashboard, proc *core.Processor) (*Session, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		dash:       d,
		proc:       proc,
		selections: map[string][]storage.Value{},
		quick:      map[string][]storage.Value{},
		results:    map[string]*exec.Result{},
		dirty:      map[string]bool{},
	}
	for _, z := range d.Zones {
		s.dirty[strings.ToLower(z.Name)] = true
	}
	return s, nil
}

// Result returns the latest rendered result of a zone.
func (s *Session) Result(zone string) *exec.Result { return s.results[strings.ToLower(zone)] }

// Select replaces the selection of a chart zone and marks action targets
// dirty. An empty value list clears the selection. The session keeps its
// own copy of vals: Render compacts a selection in place when a value
// vanishes, and that must not write into the caller's slice.
func (s *Session) Select(zone string, vals ...storage.Value) error {
	z := s.dash.Zone(zone)
	if z == nil {
		return fmt.Errorf("vizql: no zone %q", zone)
	}
	vals = slices.Clone(vals)
	if z.Kind == ZoneQuickFilter {
		s.quick[strings.ToLower(zone)] = vals
	} else {
		s.selections[strings.ToLower(zone)] = vals
	}
	for _, a := range s.dash.Actions {
		if strings.EqualFold(a.Source, zone) {
			for _, tgt := range a.Targets {
				s.dirty[strings.ToLower(tgt)] = true
			}
		}
	}
	return nil
}

// Selection returns the current selection of a zone.
func (s *Session) Selection(zone string) []storage.Value {
	if z := s.dash.Zone(zone); z != nil && z.Kind == ZoneQuickFilter {
		return s.quick[strings.ToLower(zone)]
	}
	return s.selections[strings.ToLower(zone)]
}

// ZoneQuery builds the effective query of a zone under the current
// interactive state.
func (s *Session) ZoneQuery(z *Zone) *query.Query {
	if z.Kind == ZoneQuickFilter {
		// Domains do not depend on selections; the query repeats verbatim
		// and is served by the cache after the first send.
		table := s.dash.Zones[0].Spec.View.Table
		ds := s.dash.Zones[0].Spec.DataSource
		return quickFilterDomainQuery(ds, table, z.FilterCol)
	}
	q := z.Spec.Clone()
	for _, a := range s.dash.Actions {
		if !actionTargets(a, z.Name) {
			continue
		}
		vals := s.Selection(a.Source)
		if len(vals) == 0 {
			continue
		}
		q.Filters = append(q.Filters, query.InFilter(a.Col, vals...))
	}
	return q
}

func actionTargets(a FilterAction, zone string) bool {
	for _, t := range a.Targets {
		if strings.EqualFold(t, zone) {
			return true
		}
	}
	return false
}

// Render refreshes every dirty zone, iterating while responses invalidate
// selections: when a selected value disappears from its source zone's new
// result, the selection is removed and the dependent zones re-query without
// that filter — the Fig. 2 HNL-OGG behaviour.
func (s *Session) Render(ctx context.Context) (*RenderReport, error) {
	report := &RenderReport{}
	start := time.Now()
	for iter := 0; iter < 8; iter++ {
		var zones []*Zone
		for _, z := range s.dash.Zones {
			if s.dirty[strings.ToLower(z.Name)] {
				zones = append(zones, z)
			}
		}
		if len(zones) == 0 {
			break
		}
		report.Iterations++
		batch := make([]*query.Query, len(zones))
		for i, z := range zones {
			batch[i] = s.ZoneQuery(z)
		}
		report.BatchSizes = append(report.BatchSizes, len(batch))
		results, err := s.proc.ExecuteBatch(ctx, batch)
		if err != nil {
			return nil, err
		}
		for i, z := range zones {
			s.results[strings.ToLower(z.Name)] = results[i]
			s.dirty[strings.ToLower(z.Name)] = false
			report.ZonesDrawn++
		}
		// Validate selections against the fresh results.
		for _, a := range s.dash.Actions {
			srcZone := s.dash.Zone(a.Source)
			if srcZone == nil || srcZone.Kind == ZoneQuickFilter {
				continue
			}
			sel := s.selections[strings.ToLower(a.Source)]
			if len(sel) == 0 {
				continue
			}
			res := s.results[strings.ToLower(a.Source)]
			if res == nil {
				continue
			}
			col := res.ColumnIndex(a.Col)
			if col < 0 {
				continue
			}
			kept, lost := splitHeld(res, col, sel)
			for _, v := range lost {
				report.Invalidated = append(report.Invalidated,
					fmt.Sprintf("%s=%s", a.Source, v.String()))
			}
			if len(lost) > 0 {
				s.selections[strings.ToLower(a.Source)] = kept
				for _, tgt := range a.Targets {
					s.dirty[strings.ToLower(tgt)] = true
				}
			}
		}
	}
	report.Elapsed = time.Since(start)
	return report, nil
}

// splitHeld splits a selection into the values column col of res still
// holds and those it lost, in one pass over the column. kept reuses sel's
// array.
func splitHeld(res *exec.Result, col int, sel []storage.Value) (kept, lost []storage.Value) {
	set := storage.NewKeySet(res.Cols[col].Type, res.Schema[col].Coll, sel)
	held := make([]bool, len(sel))
	for i := 0; i < res.N; i++ {
		if j := set.Index(res.Value(i, col)); j >= 0 {
			held[j] = true
		}
	}
	kept = sel[:0]
	for _, v := range sel {
		if j := set.Index(v); j >= 0 && held[j] {
			kept = append(kept, v)
		} else {
			lost = append(lost, v)
		}
	}
	return kept, lost
}
