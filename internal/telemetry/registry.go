package telemetry

import (
	"fmt"
	"io"
	"reflect"
	"sort"
)

// Registry collects metric sources: the per-package Stats structs the
// codebase already exposes (registered by pointer, flattened by reflection
// into "prefix.Field" names) and named histograms. Multiple sources may
// register under the same metric name; snapshots sum them. Histograms
// are shared by name, so every offload engine records into the same
// offload.rx.* ones. A counter struct reaches snapshots only through
// RegisterCounters: one merged with Sum/Sub/SumInto alone — ktls.Stats,
// offload.RxStats and offload.TxStats — reaches none.
//
// Registration checks what it is given, so every world a test builds
// checks it: a name (histogram name or counter prefix, dynamic parts
// included) is dotted lowercase, [a-z0-9._] (DESIGN.md invariant 12), and
// a counter struct holds only exported uint64 fields and nested counter
// structs. Sum, Sub and SumInto apply the same shape rule.
//
// The flattened-key layout (field names, reflect field paths, and the
// merged sorted slot table) is computed once per registration set and
// cached, so repeated snapshots — the sampler's per-tick loop — read
// counters through precomputed paths without rebuilding any strings or
// maps. SnapshotInto reuses the caller's buffers and is allocation-free
// at steady state.
type Registry struct {
	counters []counterSource
	hists    []*Histogram
	histIdx  map[string]*Histogram

	// Cached merged layout across all counter sources: the sorted,
	// deduplicated metric names and, per source field, the slot each
	// field sums into. Rebuilt lazily after a registration.
	names       []string
	layoutDirty bool
}

type counterSource struct {
	prefix string
	v      reflect.Value  // the registered struct (addressable via pointer)
	fields []counterField // flattened layout, cached at registration
}

// counterField is one flattened uint64 field of a registered struct.
type counterField struct {
	name string
	path []int // field index chain from the struct root
	slot int   // index into the merged snapshot, set by buildLayout
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{histIdx: make(map[string]*Histogram)}
}

// RegisterCounters registers a pointer to a counter struct, whose uint64
// fields (recursively, for nested structs) become counters named
// "prefix.Field": "prefix.Nested.Field" for a nested struct's, and
// "prefix.Field" for an embedded one's, as Go promotes them. The struct is
// read live at snapshot time, so register once and keep mutating the
// counters as usual.
func (r *Registry) RegisterCounters(prefix string, stats any) {
	if r == nil {
		return
	}
	checkName(prefix)
	v := reflect.ValueOf(stats)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		reject("RegisterCounters(%q) needs a pointer to struct, got %T", prefix, stats)
	}
	src := counterSource{prefix: prefix, v: v.Elem()}
	flattenLayout(prefix, v.Elem().Type(), nil, &src.fields)
	r.counters = append(r.counters, src)
	r.layoutDirty = true
}

// flattenLayout walks a counter struct's uint64 fields, recursing into
// nested structs (embedded ones under the same prefix), and records each
// field's full metric name and reflect index path.
func flattenLayout(prefix string, t reflect.Type, path []int, out *[]counterField) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := prefix + "." + f.Name
		if fieldKind(t, f) == reflect.Uint64 {
			p := make([]int, len(path)+1)
			copy(p, path)
			p[len(path)] = i
			*out = append(*out, counterField{name: name, path: p})
			continue
		}
		if f.Anonymous {
			name = prefix // an embedded struct's fields are promoted
		}
		flattenLayout(name, f.Type, append(path, i), out)
	}
}

// fieldKind returns reflect.Uint64 or reflect.Struct, the kinds a field f
// of counter struct t may have; a field that is unexported or of any
// other kind is rejected.
func fieldKind(t reflect.Type, f reflect.StructField) reflect.Kind {
	k := f.Type.Kind()
	if !f.IsExported() || k != reflect.Uint64 && k != reflect.Struct {
		reject("field %s of %s has type %s: a counter struct holds only exported uint64 fields and nested counter structs", f.Name, t, f.Type)
	}
	return k
}

// checkName rejects a metric name outside the dotted-lowercase alphabet
// [a-z0-9._].
func checkName(name string) {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '_') {
			reject("metric name %q is not dotted lowercase: names must match [a-z0-9._]", name)
		}
	}
}

// reject holds the package's only panic. Only a bug in the code that
// registers or merges counters reaches it — a bad name, a struct of the
// wrong shape — never a run's input, so it stops the world at setup.
func reject(format string, args ...any) {
	panic("telemetry: " + fmt.Sprintf(format, args...))
}

// buildLayout merges every source's field names into one sorted slot
// table and back-fills each field's slot index.
func (r *Registry) buildLayout() {
	slots := make(map[string]int)
	r.names = r.names[:0]
	for si := range r.counters {
		for fi := range r.counters[si].fields {
			name := r.counters[si].fields[fi].name
			if _, ok := slots[name]; !ok {
				slots[name] = 0
				r.names = append(r.names, name)
			}
		}
	}
	sort.Strings(r.names)
	for i, name := range r.names {
		slots[name] = i
	}
	for si := range r.counters {
		for fi := range r.counters[si].fields {
			f := &r.counters[si].fields[fi]
			f.slot = slots[f.name]
		}
	}
	r.layoutDirty = false
}

// Histogram returns the histogram with the given name, creating it on
// first use. All callers asking for the same name share one histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.histIdx[name]; ok {
		return h
	}
	h := NewHistogram(name)
	r.histIdx[name] = h
	r.hists = append(r.hists, h)
	return h
}

// Counter is one named counter value in a snapshot.
type Counter struct {
	Name  string
	Value uint64
}

// Snapshot is a point-in-time flattening of every registered source:
// counters sorted by name (same-named sources summed) plus histogram
// summaries in registration order.
type Snapshot struct {
	Counters []Counter
	Hists    []HistSnap
}

// Snapshot flattens the registry now.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	s := &Snapshot{}
	r.SnapshotInto(s)
	return s
}

// SnapshotInto flattens the registry into s, reusing s's backing arrays.
// After the first call (which sizes the buffers) repeated snapshots of a
// stable registry perform no allocations — this is the sampler's per-tick
// entry point.
func (r *Registry) SnapshotInto(s *Snapshot) {
	if r == nil {
		s.Counters = s.Counters[:0]
		s.Hists = s.Hists[:0]
		return
	}
	if r.layoutDirty {
		r.buildLayout()
	}
	if cap(s.Counters) < len(r.names) {
		s.Counters = make([]Counter, len(r.names))
	}
	s.Counters = s.Counters[:len(r.names)]
	for i, name := range r.names {
		s.Counters[i] = Counter{Name: name}
	}
	for si := range r.counters {
		src := &r.counters[si]
		for fi := range src.fields {
			f := &src.fields[fi]
			s.Counters[f.slot].Value += fieldByPath(src.v, f.path).Uint()
		}
	}
	if cap(s.Hists) < len(r.hists) {
		s.Hists = make([]HistSnap, 0, len(r.hists))
	}
	s.Hists = s.Hists[:0]
	for _, h := range r.hists {
		s.Hists = append(s.Hists, h.Snap())
	}
}

// fieldByPath resolves a cached field index chain.
func fieldByPath(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		v = v.Field(i)
	}
	return v
}

// Get returns a counter's value (0 when absent).
func (s *Snapshot) Get(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Fprint writes the snapshot as a plain-text metrics dump: one
// "name value" line per counter, then one summary line per histogram.
func (s *Snapshot) Fprint(w io.Writer) {
	for _, c := range s.Counters {
		fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
	}
	for _, h := range s.Hists {
		h.Fprint(w)
	}
}

// Sum adds counter struct src's uint64 fields into dst, recursing into
// nested structs. It replaces the hand-rolled per-type stats-merging
// helpers experiments used to carry (e.g. addRxStats).
func Sum[T any](dst *T, src T) {
	mergeStruct(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), 1)
}

// Sub subtracts src's counter fields from dst (for windowed deltas
// against a baseline snapshot of the same struct).
func Sub[T any](dst *T, src T) {
	mergeStruct(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), -1)
}

// SumInto adds src's counter fields into dst, like Sum, but takes src by
// pointer: passing a struct by value through reflect boxes a fresh copy
// on the heap, while a pointer rides in the interface word for free. Hot
// merge loops (NIC.Stats over per-queue stats, the sampler) use this so
// repeated snapshots stay allocation-free.
func SumInto[T any](dst, src *T) {
	mergeStruct(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(), 1)
}

func mergeStruct(dst, src reflect.Value, sign int64) {
	t := dst.Type()
	for i := 0; i < t.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		if fieldKind(t, t.Field(i)) == reflect.Struct {
			mergeStruct(d, s, sign)
			continue
		}
		d.SetUint(uint64(int64(d.Uint()) + sign*int64(s.Uint())))
	}
}
