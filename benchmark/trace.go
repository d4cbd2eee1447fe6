package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// epoch anchors every timestamp of the process to one monotonic origin, so
// spans recorded on different goroutines (driver workers, the netdriver
// server) are directly comparable.
var epoch = time.Now()

// now returns nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer. Its id is its index in the tracer's
// slice; parent is -1 for a root.
type span struct {
	parent     int32
	name       string
	start, end int64
}

// tracer keeps spans in memory until the benchmark ends. It is not
// goroutine-safe: every workload records from one goroutine at a time (the
// virtual runner is single-threaded; wire-rt's client calls are serialised
// by the driver lock and its server spans are merged in after Close).
type tracer struct {
	spans []span
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int32, name string, start, end int64) int32 {
	t.spans = append(t.spans, span{parent: parent, name: name, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is not yet known (a root around a run).
func (t *tracer) open(parent int32, name string) int32 {
	return t.add(parent, name, now(), 0)
}

// selfTimes returns, per span, its duration minus the part of it its child
// spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// checkSpans verifies the structural contract of a trace: every span ends
// after it starts, lies inside its parent, does not overlap a sibling, and
// has non-negative self time.
func checkSpans(spans []span) error {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.name)
		}
		if s.parent >= 0 {
			p := spans[s.parent]
			if s.start < p.start || s.end > p.end {
				return fmt.Errorf("span %d (%s) [%d,%d] leaves parent %d (%s) [%d,%d]",
					i, s.name, s.start, s.end, s.parent, p.name, p.start, p.end)
			}
		}
		children[s.parent] = append(children[s.parent], int32(i))
	}
	for parent, ids := range children {
		if parent < 0 {
			continue // roots of different runs may be recorded in any order
		}
		sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].start < spans[ids[b]].start })
		for k := 1; k < len(ids); k++ {
			if spans[ids[k]].start < spans[ids[k-1]].end {
				return fmt.Errorf("spans %d and %d (%s) overlap under parent %d",
					ids[k-1], ids[k], spans[ids[k]].name, parent)
			}
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d", i, spans[i].name, d)
		}
	}
	return nil
}

// writeTrace writes the spans as a JSON array of
// {id, parent, name, start_ns, end_ns} objects, one per line.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	w.WriteString("[\n")
	for i, s := range spans {
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, '}')
		if i < len(spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
