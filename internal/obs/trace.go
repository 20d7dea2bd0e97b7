package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one node of a per-query trace tree. All methods are safe on a
// nil receiver and do nothing, so tracing call sites stay branch-free:
// a disabled query carries a nil *Span and every Child/SetInt/End is a
// cheap nil-check. Spans only record timings and attributes — they
// never alter the work the query performs, which is what keeps traced
// and untraced results byte-identical.
//
// Children may be created and ended from concurrent worker goroutines;
// the parent's child list and each span's own fields are mutex-guarded.
type Span struct {
	name  string
	begin time.Time

	mu       sync.Mutex
	dur      time.Duration
	done     bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span; exactly one of Int/Str is
// meaningful, chosen by the setter used.
type Attr struct {
	Key string
	Int int64
	Str string
	str bool
}

// NewTrace starts a root span.
func NewTrace(name string) *Span {
	return &Span{name: name, begin: time.Now()}
}

// Child starts a sub-span. Returns nil when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, begin: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End finishes the span (idempotent, nil-safe). Ending a span also ends
// any still-open children so a partially-errored query renders cleanly.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = time.Since(s.begin)
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		c.End()
	}
}

// SetInt attaches an integer attribute (nil-safe).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
	s.mu.Unlock()
}

// SetStr attaches a string attribute (nil-safe).
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, str: true})
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration (0 while open or for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Children returns a copy of the child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns a copy of the attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// node is the marshal/render view of a span, offsets relative to the
// parent's begin time.
type node struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*node        `json:"children,omitempty"`
}

func (s *Span) toNode(parentBegin time.Time) *node {
	s.mu.Lock()
	n := &node{
		Name:    s.name,
		StartUS: s.begin.Sub(parentBegin).Microseconds(),
		DurUS:   s.dur.Microseconds(),
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			if a.str {
				n.Attrs[a.Key] = a.Str
			} else {
				n.Attrs[a.Key] = a.Int
			}
		}
	}
	kids := append([]*Span(nil), s.children...)
	begin := s.begin
	s.mu.Unlock()
	for _, c := range kids {
		n.Children = append(n.Children, c.toNode(begin))
	}
	// Concurrent children (scan windows) are appended
	// in spawn order; sort by start offset so the tree reads in time
	// order.
	sort.SliceStable(n.Children, func(i, j int) bool {
		return n.Children[i].StartUS < n.Children[j].StartUS
	})
	return n
}

// MarshalJSON encodes the span tree with start offsets relative to the
// parent span.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.toNode(s.begin))
}

// Render writes the span tree as an indented text outline:
//
//	search                         1.234ms
//	  compile                      +0µs 12µs
//	  execute                      +15µs 1.1ms
//	    method fast-top-k-et       +2µs 1.0ms  work=1234
func (s *Span) Render(w io.Writer) {
	if s == nil {
		return
	}
	renderNode(w, s.toNode(s.begin), 0)
}

func renderNode(w io.Writer, n *node, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	if depth == 0 {
		fmt.Fprintf(w, "%s  %s", n.Name, time.Duration(n.DurUS)*time.Microsecond)
	} else {
		fmt.Fprintf(w, "%s  +%s %s", n.Name,
			time.Duration(n.StartUS)*time.Microsecond,
			time.Duration(n.DurUS)*time.Microsecond)
	}
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		io.WriteString(w, " ")
		for i, k := range keys {
			if i > 0 {
				io.WriteString(w, " ")
			}
			fmt.Fprintf(w, "%s=%v", k, n.Attrs[k])
		}
	}
	io.WriteString(w, "\n")
	for _, c := range n.Children {
		renderNode(w, c, depth+1)
	}
}
