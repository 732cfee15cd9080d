package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Layer is the
// module the called function lives in; Parent is the index of the enclosing
// span (-1 for an op's root); spans of one op share its Op id.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the workload ends.
// A nil *tracer records nothing, so the untraced and the traced pass run the
// same code. It is used from the load-generating goroutine only.
type tracer struct {
	spans []span
	stack []int
	op    int
}

// beginOp opens the root span of the next op.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op++
	t.stack = t.stack[:0]
	t.begin("bench." + name)
}

// begin opens a span named "<layer>.<call>" under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layerOf(name), Op: t.op, Parent: parent, StartNs: int64(now())})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].EndNs = int64(now())
	return time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
}

// add records an already measured span (start and end taken elsewhere, e.g.
// on a worker goroutine) of op, under the span with index parent (-1 for a
// root).
func (t *tracer) add(name string, op, parent int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Layer: layerOf(name), Op: op, Parent: parent, StartNs: int64(start), EndNs: int64(end)})
}

// selfByLayer folds the spans into self time per layer: a span's duration
// minus the part of that interval its child spans cover (children that ran
// side by side cover their union, not their sum). The op roots' self time is
// the benchmark's own (layer "bench").
func (t *tracer) selfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	for i, s := range t.spans {
		out[s.Layer] += time.Duration(s.EndNs - s.StartNs - covered(children[i]))
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// write stores the spans as bench/out/trace_<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// layerOf returns the layer a span name "<layer>.<call>" belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}
