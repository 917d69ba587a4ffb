package main

import (
	"encoding/json"
	"io"
	"strconv"
	"time"

	"smartrefresh/internal/atomicio"
)

// spanLog keeps wall-clock spans in memory and writes them, when the
// benchmark ends, as Chrome trace-event JSON (the format internal/telemetry
// emits, which Perfetto and chrome://tracing load). Every span carries its
// own id and its parent's; spans belonging to one record also carry the
// record's index. A nil *spanLog records nothing.
type spanLog struct {
	lastID  int64
	spans   []span
	dropped int
}

type span struct {
	name       string
	id, parent int64
	tid        int
	start      time.Duration // since epoch
	dur        time.Duration
	req        int64 // record index, or -1
}

// maxSpans bounds the log's memory; later spans are counted as dropped.
const maxSpans = 1 << 16

// newID reserves a span id, so children can name a parent that is
// recorded after them.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	l.lastID++
	return l.lastID
}

func (l *spanLog) add(name string, id, parent int64, tid int, start, end time.Duration, req int64) {
	if l == nil {
		return
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, tid: tid, start: start, dur: end - start, req: req})
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeFile writes the spans to path atomically; threads[tid] names
// each thread row.
func (l *spanLog) writeFile(path, process string, threads []string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		events := []traceEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": process}}}
		for tid, name := range threads {
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: map[string]any{"name": name}})
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		for _, s := range l.spans {
			args := map[string]any{"id": s.id, "parent": s.parent}
			if s.req >= 0 {
				args["req"] = s.req
			}
			events = append(events, traceEvent{
				Name: s.name, Cat: "perfbench", Ph: "X",
				Ts: us(s.start), Dur: us(s.dur), Tid: s.tid, Args: args,
			})
		}
		return json.NewEncoder(w).Encode(map[string]any{
			"traceEvents":     events,
			"displayTimeUnit": "ns",
			"otherData":       map[string]string{"droppedSpans": strconv.Itoa(l.dropped)},
		})
	})
}
