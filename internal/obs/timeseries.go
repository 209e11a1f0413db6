// The cluster-wide time-series store: where the aggregation tree's committed
// windows land, keyed by virtual time.
//
// Two series shapes exist. Counter series hold per-window deltas (the value
// committed at tick k is what the cluster accumulated during window k), with
// a running Total so fidelity against the exact registry counters is a
// one-line comparison. Gauge series hold levels, committed only on change.
// Each series ring-buffers its most recent points — bounded memory for an
// arbitrarily long run, like the trace ring.
//
// Like trace export, every renderer here (JSON, table, Perfetto counter
// tracks) is hand-rolled over name-sorted series, so the output bytes are a
// pure function of the committed data — the property the byte-identity
// determinism test hashes.

package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"multikernel/internal/trace"
)

// Point is one committed sample: the series' value V at virtual time At (a
// window delta for counter series, a level for gauge series).
type Point struct {
	At uint64
	V  int64
}

// Series is one named time series in the store.
type Series struct {
	Name  string
	Gauge bool

	ring  []Point // fixed-capacity ring, oldest overwritten first
	n     uint64  // points ever committed
	total int64   // counters: cumulative sum of all committed deltas
}

// Points returns the retained points, oldest first.
func (s *Series) Points() []Point {
	cap := uint64(cap(s.ring))
	if s.n <= cap {
		return s.ring
	}
	cut := int(s.n % cap)
	out := make([]Point, 0, cap)
	out = append(out, s.ring[cut:]...)
	return append(out, s.ring[:cut]...)
}

// Total returns the cumulative sum of every committed delta — for a counter
// series, the cluster-wide counter value as of the last committed window.
func (s *Series) Total() int64 { return s.total }

// Last returns the most recent point, if any.
func (s *Series) Last() (Point, bool) {
	if s.n == 0 {
		return Point{}, false
	}
	return s.ring[(s.n-1)%uint64(cap(s.ring))], true
}

// Store holds every committed series.
type Store struct {
	ring   int
	series map[string]*Series
}

// NewStore returns an empty store whose series each retain the last ring
// points.
func NewStore(ring int) *Store {
	if ring < 1 {
		ring = 1
	}
	return &Store{ring: ring, series: make(map[string]*Series)}
}

// Commit appends one point to the named series, creating it on first use.
func (st *Store) Commit(at uint64, name string, v int64, gauge bool) {
	s := st.series[name]
	if s == nil {
		s = &Series{Name: name, Gauge: gauge, ring: make([]Point, 0, st.ring)}
		st.series[name] = s
	}
	pt := Point{At: at, V: v}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, pt)
	} else {
		s.ring[s.n%uint64(cap(s.ring))] = pt
	}
	s.n++
	if !gauge {
		s.total += v
	}
}

// Get returns the named series, or nil.
func (st *Store) Get(name string) *Series { return st.series[name] }

// Names returns every series name, sorted.
func (st *Store) Names() []string {
	out := make([]string, 0, len(st.series))
	for n := range st.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteJSON exports the store as a deterministic JSON document: series sorted
// by name, points oldest first. Hand-rolled for the same reason trace export
// is — the bytes must be identical across runs and host parallelism.
func (st *Store) WriteJSON(w io.Writer) error {
	var b []byte
	b = append(b, `{"series":[`...)
	for i, name := range st.Names() {
		s := st.series[name]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n{\"name\":"...)
		b = strconv.AppendQuote(b, s.Name)
		if s.Gauge {
			b = append(b, `,"gauge":true`...)
		} else {
			b = append(b, `,"total":`...)
			b = strconv.AppendInt(b, s.total, 10)
		}
		b = append(b, `,"n":`...)
		b = strconv.AppendUint(b, s.n, 10)
		b = append(b, `,"points":[`...)
		for j, p := range s.Points() {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `[`...)
			b = strconv.AppendUint(b, p.At, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, p.V, 10)
			b = append(b, ']')
		}
		b = append(b, "]}"...)
	}
	b = append(b, "\n]}\n"...)
	_, err := w.Write(b)
	return err
}

// Render returns an aligned text table of every series matching prefix (""
// for all): name, point count, last value, and cumulative total for counter
// series.
func (st *Store) Render(prefix string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %8s %14s %14s\n", "series", "points", "last", "total")
	for _, name := range st.Names() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		s := st.series[name]
		last, _ := s.Last()
		tot := "gauge"
		if !s.Gauge {
			tot = strconv.FormatInt(s.total, 10)
		}
		fmt.Fprintf(&b, "%-40s %8d %14d %14s\n", s.Name, s.n, last.V, tot)
	}
	return b.String()
}

// CounterTracks converts every series matching prefix into Perfetto counter
// tracks. Counter series are re-accumulated into running totals (ending at
// Total even after a ring wrap, so the plotted line agrees with the exact
// counters); gauge series plot their levels directly. Negative levels clamp
// to zero — the export format carries unsigned samples.
func (st *Store) CounterTracks(prefix string) []trace.CounterTrack {
	var out []trace.CounterTrack
	for _, name := range st.Names() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		s := st.series[name]
		pts := s.Points()
		tr := trace.CounterTrack{Name: s.Name, Sub: trace.SubObs, Core: -1,
			Points: make([]trace.CounterPoint, 0, len(pts))}
		if s.Gauge {
			for _, p := range pts {
				v := p.V
				if v < 0 {
					v = 0
				}
				tr.Points = append(tr.Points, trace.CounterPoint{At: p.At, V: uint64(v)})
			}
		} else {
			// Start the running sum where the ring begins: total minus the
			// retained deltas.
			run := s.total
			for _, p := range pts {
				run -= p.V
			}
			for _, p := range pts {
				run += p.V
				v := run
				if v < 0 {
					v = 0
				}
				tr.Points = append(tr.Points, trace.CounterPoint{At: p.At, V: uint64(v)})
			}
		}
		out = append(out, tr)
	}
	return out
}
