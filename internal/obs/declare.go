package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// A series is declared once, by a struct tag on the exported handle field of
// an instrument bundle:
//
//	Inserts *Counter `metric:"woha_queue_inserts_total" labels:"queue" help:"..."`
//
// labels lists the label keys, comma-separated; buckets names a histogram's
// bucket set. The field type gives the series type and shape: a *Counter,
// *Gauge or *Histogram is one series; a slice of one is a series per value
// supplied for its one label key; a Vec is a family whose one label the code
// owning the values binds per value. declare fills a bundle's fields, and
// reflection runs only there: the hot paths read the typed handles.

var bucketSets = map[string][]float64{
	"duration": DurationBuckets, "count": CountBuckets, "iter": IterBuckets, "slack": SlackBuckets,
}

var handleTypes = map[reflect.Type]string{
	reflect.TypeOf((*Counter)(nil)):   "counter",
	reflect.TypeOf((*Gauge)(nil)):     "gauge",
	reflect.TypeOf((*Histogram)(nil)): "histogram",
}

// decl is one series declaration.
type decl struct {
	field      int
	name, help string
	typ        string // counter, gauge, histogram
	keys       []string
	buckets    []float64
}

var (
	declsByType sync.Map // reflect.Type → []decl
	declaredBy  sync.Map // series name → "Type.Field" declaring it
)

// declsOf parses the declarations of bundle type t, once per type. A
// malformed tag, an unknown bucket set or a name declared twice panics, so
// building the bundle in any test finds it.
func declsOf(t reflect.Type) []decl {
	if ds, ok := declsByType.Load(t); ok {
		return ds.([]decl)
	}
	var ds []decl
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		d := decl{field: i, name: name, help: f.Tag.Get("help"), typ: handleType(f.Type)}
		if l := f.Tag.Get("labels"); l != "" {
			d.keys = strings.Split(l, ",")
		}
		if d.typ == "histogram" {
			d.buckets = bucketSets[f.Tag.Get("buckets")]
		}
		where := t.Name() + "." + f.Name
		switch {
		case d.typ == "" || name == "" || d.help == "":
			panic(fmt.Sprintf("obs: %s: want a series handle with metric and help tags", where))
		case f.Type.Kind() != reflect.Pointer && len(d.keys) != 1:
			panic(fmt.Sprintf("obs: %s: a slice or Vec takes exactly one label key", where))
		case d.typ == "histogram" && d.buckets == nil:
			panic(fmt.Sprintf("obs: %s: unknown bucket set %q", where, f.Tag.Get("buckets")))
		}
		if prev, dup := declaredBy.LoadOrStore(name, where); dup && prev != where {
			panic(fmt.Sprintf("obs: %s: %s is already declared by %s", where, name, prev))
		}
		ds = append(ds, d)
	}
	declsByType.Store(t, ds)
	return ds
}

// handleType is the series type a field carries, "" if it is no handle.
func handleType(t reflect.Type) string {
	switch {
	case t.Kind() == reflect.Slice:
		t = t.Elem()
	case t.Implements(binderType):
		with, _ := t.MethodByName("With")
		t = with.Type.Out(0)
	}
	return handleTypes[t]
}

// declare registers the tagged series of *bundle on reg, stores their
// handles in its fields and returns bundle. values holds one value per label
// key of a single series and one per element of a slice field. On a nil reg
// the handles stay nil, but a slice field still gets one per value, so
// indexing it is safe.
func declare[B any](reg *Registry, bundle *B, values map[string][]string) *B {
	v := reflect.ValueOf(bundle).Elem()
	ds := declsOf(v.Type())
	for i := range ds {
		d, fv := &ds[i], v.Field(ds[i].field)
		switch fv.Kind() {
		case reflect.Pointer:
			if m := reg.register(d, d.labels(values)); m != nil {
				fv.Set(reflect.ValueOf(m))
			}
		case reflect.Slice:
			vals := values[d.keys[0]]
			s := reflect.MakeSlice(fv.Type(), len(vals), len(vals))
			for j, val := range vals {
				if m := reg.register(d, Labels{d.keys[0]: val}); m != nil {
					s.Index(j).Set(reflect.ValueOf(m))
				}
			}
			fv.Set(s)
		default:
			fv.Set(reflect.ValueOf(fv.Interface().(binder).bound(reg, d)))
		}
	}
	return bundle
}

// labels binds each of d's label keys to its one supplied value.
func (d *decl) labels(values map[string][]string) Labels {
	l := make(Labels, len(d.keys))
	for _, k := range d.keys {
		if len(values[k]) != 1 {
			panic(fmt.Sprintf("obs: %s: label %q needs one value, got %d", d.name, k, len(values[k])))
		}
		l[k] = values[k][0]
	}
	return l
}

// handle returns d's series for labels, typed; nil on a nil registry.
func handle[T Counter | Gauge | Histogram](r *Registry, d *decl, labels Labels) *T {
	h, _ := any(r.register(d, labels)).(*T)
	return h
}

// Vec is a declared family with one free label, bound per value by the code
// owning the values. The zero Vec is disabled: With returns nil.
type Vec[T Counter | Gauge | Histogram] struct {
	reg *Registry
	d   *decl
}

// binder lets declare fill a Vec field whatever its handle type.
type binder interface{ bound(*Registry, *decl) any }

var binderType = reflect.TypeOf((*binder)(nil)).Elem()

func (Vec[T]) bound(reg *Registry, d *decl) any { return Vec[T]{reg, d} }

// With returns the family's series for one label value, registering it on
// first use. It takes the registry lock: bind at setup, not per event.
func (v Vec[T]) With(value string) *T {
	if v.reg == nil {
		return nil
	}
	return handle[T](v.reg, v.d, Labels{v.d.keys[0]: value})
}
