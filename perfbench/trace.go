package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"costream/internal/core"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// span is one timed call into a layer. Spans of one request share Req,
// the ID of the request's root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Size is the number of items the call handled (candidates of a
	// tile or batch), 0 where it does not apply.
	Size int `json:"size,omitempty"`
}

// tracer keeps spans in memory. A new span's parent is the open span
// bound to its request tag (calls the server hands to another
// goroutine, such as the coalescer's batch leader), else the innermost
// open span of the calling goroutine. A nil tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	stacks map[uint64][]int32
	tags   map[string]int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stacks: map[uint64][]int32{}, tags: map[string]int32{}}
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name, tag string, size int) int32 {
	if t == nil {
		return -1
	}
	g := goid()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if id, ok := t.tags[tag]; ok && tag != "" {
		parent = id
	} else if st := t.stacks[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := int32(len(t.spans))
	req := id
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1, Size: size})
	t.stacks[g] = append(t.stacks[g], id)
	return id
}

// end closes the span opened by the calling goroutine.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	g := goid()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	st := t.stacks[g]
	if n := len(st); n > 0 && st[n-1] == id {
		st = st[:n-1]
	}
	if len(st) == 0 {
		delete(t.stacks, g)
	} else {
		t.stacks[g] = st
	}
}

// bind makes span id the parent of calls tagged tag until unbind.
func (t *tracer) bind(tag string, id int32) {
	if t == nil || tag == "" {
		return
	}
	t.mu.Lock()
	t.tags[tag] = id
	t.mu.Unlock()
}

func (t *tracer) unbind(tag string) {
	if t == nil || tag == "" {
		return
	}
	t.mu.Lock()
	delete(t.tags, tag)
	t.mu.Unlock()
}

// reset drops every span recorded so far; no span may be open.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines under the benchmark's output
// directory (PERFBENCH_OUT, default .bench_build) and returns the path.
func writeSpans(spans []span, workload string, seed int64) (string, error) {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanStats summarises the spans of one name: mean duration, mean self
// time (duration minus the part covered by child spans), mean size.
type spanStats struct {
	n              int
	meanUS, selfUS float64
	meanSize       float64
}

func summarize(spans []span) map[string]spanStats {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct{ n, dur, self, size float64 }
	accs := map[string]*acc{}
	for _, s := range spans {
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		d := float64(s.End - s.Start)
		a.n++
		a.dur += d
		a.self += d - float64(covered(s, children[s.ID]))
		a.size += float64(s.Size)
	}
	out := make(map[string]spanStats, len(accs))
	for name, a := range accs {
		out[name] = spanStats{n: int(a.n), meanUS: a.dur / a.n / 1e3, selfUS: a.self / a.n / 1e3, meanSize: a.size / a.n}
	}
	return out
}

// covered returns how many nanoseconds of s the union of kids covers.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// clusterTag is the request tag of a call: the benchmark gives every
// generated cluster host IDs that start with its request's tag.
func clusterTag(c *hardware.Cluster) string {
	if c == nil || len(c.Hosts) == 0 {
		return ""
	}
	id := c.Hosts[0].ID
	if i := strings.LastIndexByte(id, '-'); i > 0 {
		return id[:i]
	}
	return ""
}

// tracedPredictor wraps the fixture predictor handed to serve.Config and
// fleet.RunOptions and records a span around every call. It implements
// the same optional interfaces as *core.Predictor (BatchPredictor,
// SessionPredictor with a wrapped TileScorer, PathStatsReporter), so the
// placement engine and the server pick the same inference path as they
// do for the bare predictor.
type tracedPredictor struct {
	inner *core.Predictor
	tr    *tracer
}

var (
	_ placement.BatchPredictor    = (*tracedPredictor)(nil)
	_ placement.SessionPredictor  = (*tracedPredictor)(nil)
	_ placement.PathStatsReporter = (*tracedPredictor)(nil)
)

func (p *tracedPredictor) PredictPlacement(q *stream.Query, c *hardware.Cluster, pl sim.Placement) (placement.PredCosts, error) {
	id := p.tr.begin("core.predict_placement", clusterTag(c), 1)
	defer p.tr.end(id)
	return p.inner.PredictPlacement(q, c, pl)
}

func (p *tracedPredictor) PredictBatch(q *stream.Query, c *hardware.Cluster, ps []sim.Placement) ([]placement.PredCosts, error) {
	id := p.tr.begin("core.predict_batch", clusterTag(c), len(ps))
	defer p.tr.end(id)
	return p.inner.PredictBatch(q, c, ps)
}

func (p *tracedPredictor) NewScoreSession(q *stream.Query, c *hardware.Cluster) (placement.TileScorer, error) {
	tag := clusterTag(c)
	id := p.tr.begin("core.session", tag, 0)
	s, err := p.inner.NewScoreSession(q, c)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedSession{inner: s, tr: p.tr, tag: tag}, nil
}

func (p *tracedPredictor) InferencePathStats() placement.InferencePathStats {
	return p.inner.InferencePathStats()
}

type tracedSession struct {
	inner placement.TileScorer
	tr    *tracer
	tag   string
}

func (s *tracedSession) TileSize() int { return s.inner.TileSize() }

func (s *tracedSession) ScoreTile(cands []sim.Placement, out []placement.PredCosts) error {
	id := s.tr.begin("core.score_tile", s.tag, len(cands))
	defer s.tr.end(id)
	return s.inner.ScoreTile(cands, out)
}

// scrape reads the Prometheus text exposition served by h at GET
// /metrics into a map keyed by series (name plus label block).
func scrape(h http.Handler) (map[string]float64, error) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", w.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta returns after-before for every series of after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// pathCounters are the series that show which inference path scored the
// candidates: equal deltas mean equal paths.
var pathCounters = []string{
	"costream_inference_fused_candidates_total",
	"costream_inference_fallback_candidates_total",
	`costream_search_candidates_total{status="scored"}`,
	`costream_search_candidates_total{status="duplicate"}`,
	`costream_search_candidates_total{status="skipped"}`,
	"costream_inference_candidates_total",
}
