// Chrome trace-event / Perfetto JSON export and the plain-text dump.
//
// The JSON is hand-rolled rather than reflected through encoding/json: field
// order, number formatting and escaping are then fixed by this code alone,
// which is what makes exported traces byte-identical across runs and across
// host parallelism (the determinism test hashes these bytes).

package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// phase maps a Kind to its Chrome trace-event phase letter.
func phase(k Kind) byte {
	switch k {
	case Begin:
		return 'B'
	case End:
		return 'E'
	case Instant:
		return 'i'
	case FlowOut:
		return 's'
	case FlowIn:
		return 'f'
	case AsyncBegin:
		return 'b'
	case AsyncEnd:
		return 'e'
	case Count:
		return 'C'
	}
	return 'i'
}

// tid maps an event's core to a Chrome thread id: tid 0 is engine context,
// core N is tid N+1.
func tid(core int32) int64 { return int64(core) + 1 }

// appendEvent serializes one event as a Chrome trace-event object. ts is the
// virtual time in cycles (exported 1 cycle = 1 µs, so Perfetto's time axis
// reads directly in cycles).
func appendEvent(b []byte, pid int, ev Event) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, ev.Name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, ev.Sub.String())
	b = append(b, `,"ph":"`...)
	b = append(b, phase(ev.Kind))
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, ev.At, 10)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, tid(ev.Core), 10)
	switch ev.Kind {
	case FlowOut, FlowIn, AsyncBegin, AsyncEnd:
		// id2.local scopes the correlation id to this process, so parallel
		// engine runs exported as separate pids cannot cross-link.
		b = append(b, `,"id2":{"local":"0x`...)
		b = strconv.AppendUint(b, ev.ID, 16)
		b = append(b, `"}`...)
		if ev.Kind == FlowIn {
			b = append(b, `,"bp":"e"`...)
		}
	case Instant:
		b = append(b, `,"s":"t"`...)
	}
	if ev.Arg != 0 || ev.Kind == Count {
		b = append(b, `,"args":{"v":`...)
		b = strconv.AppendUint(b, ev.Arg, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendMeta serializes a process/thread-name metadata event.
func appendMeta(b []byte, kind string, pid int, tid int64, name string) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, kind)
	b = append(b, `,"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	if tid >= 0 {
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, tid, 10)
	}
	b = append(b, `,"args":{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `}}`...)
	return b
}

// appendChunk serializes evs (plus naming metadata) for the given pid and
// process name. Every event object is terminated by ",\n" so chunks
// concatenate directly inside the traceEvents array.
func appendChunk(b []byte, pid int, procName string, evs []Event) []byte {
	b = appendMeta(b, "process_name", pid, -1, procName)
	b = append(b, ",\n"...)
	for _, t := range chunkTids(evs) {
		name := "engine"
		if t > 0 {
			name = "core " + strconv.FormatInt(t-1, 10)
		}
		b = appendMeta(b, "thread_name", pid, t, name)
		b = append(b, ",\n"...)
	}
	for _, ev := range evs {
		b = appendEvent(b, pid, ev)
		b = append(b, ",\n"...)
	}
	return b
}

// chunkTids returns the distinct thread ids appearing in evs, ascending.
func chunkTids(evs []Event) []int64 {
	var seen [130]bool // tids are small (core counts ≤ 64 here); spill is ignored
	for _, ev := range evs {
		if t := tid(ev.Core); t >= 0 && t < int64(len(seen)) {
			seen[t] = true
		}
	}
	var out []int64
	for t, ok := range seen {
		if ok {
			out = append(out, int64(t))
		}
	}
	return out
}

// writeJSON writes a complete Chrome trace JSON document from pre-serialized
// chunks. The final "]}"-closing object is legal even with the trailing
// comma-free last element handled by a sentinel metadata event.
func writeJSON(w io.Writer, chunks [][]byte) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	// Chunks end with ",\n"; close the array with a final no-op metadata
	// event so the JSON stays valid without trailing-comma surgery.
	_, err := io.WriteString(w, "{\"name\":\"trace_export_done\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"done\"}}\n],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// WriteJSON exports the recorders as one Chrome trace JSON document, one
// process per recorder in argument order. Nil recorders are skipped.
func WriteJSON(w io.Writer, recs ...*Recorder) error {
	var chunks [][]byte
	pid := 0
	for _, r := range recs {
		if r == nil {
			continue
		}
		chunks = append(chunks, appendChunk(nil, pid, "engine "+strconv.Itoa(pid), r.Events()))
		pid++
	}
	return writeJSON(w, chunks)
}

// CounterPoint is one sample of a counter track: the series' value V at
// virtual time At.
type CounterPoint struct {
	At uint64
	V  uint64
}

// CounterTrack is a named time series exported as a Perfetto counter ('C')
// track: one independently-plotted line per Name on the Core's timeline
// (Core -1 places it on the engine row). Points must be in ascending At
// order.
type CounterTrack struct {
	Name   string
	Sub    Subsystem
	Core   int32
	Points []CounterPoint
}

// WriteJSONCounters exports counter tracks as one Chrome trace JSON document
// under a single "counters" process. Like WriteJSON, the bytes are fully
// determined by the inputs, so identical stores export identically.
func WriteJSONCounters(w io.Writer, tracks ...CounterTrack) error {
	var evs []Event
	for _, tr := range tracks {
		for _, p := range tr.Points {
			evs = append(evs, Event{At: p.At, Arg: p.V, Name: tr.Name, Kind: Count, Sub: tr.Sub, Core: tr.Core})
		}
	}
	return writeJSON(w, [][]byte{appendChunk(nil, 0, "counters", evs)})
}

// TextDump renders the retained events as aligned plain text — the flight
// recorder format printed on test failure and by mksim -trace.
func (r *Recorder) TextDump() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, ev := range r.Events() {
		who := "engine"
		if ev.Core >= 0 {
			who = "core" + strconv.Itoa(int(ev.Core))
		}
		fmt.Fprintf(&b, "%12d %-8s %-7s %s %-24s", ev.At, ev.Sub, who, ev.Kind, ev.Name)
		if ev.ID != 0 {
			fmt.Fprintf(&b, " id=%#x", ev.ID)
		}
		if ev.Arg != 0 {
			fmt.Fprintf(&b, " arg=%d", ev.Arg)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
