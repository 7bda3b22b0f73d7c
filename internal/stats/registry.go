package stats

import (
	"reflect"
	"regexp"
	"strings"

	"repro/internal/sim"
)

// Registry maps the name of every counter, histogram quantile and
// computed gauge of one built system, "layer.snake_case_name", to how it
// is read, so that one snapshot reads them all. A gauge is added by
// assigning its entry; nothing is read until Snapshot.
type Registry map[string]func() float64

// Register adds, under layer, every exported Counter and non-nil
// *Histogram field of the struct ptr points to, those promoted from the
// structs it embeds included. A Counter FetchRetries reads as
// layer.fetch_retries; a Histogram RepairLat, which records simulated
// times, as layer.repair_lat_count and layer.repair_lat_p99_us. Anything
// but a non-nil pointer to a struct registers nothing.
func (r Registry) Register(layer string, ptr any) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return
	}
	for _, sf := range reflect.VisibleFields(v.Elem().Type()) {
		f, err := v.Elem().FieldByIndexErr(sf.Index)
		if err != nil || !f.CanInterface() {
			continue // unexported, or behind a nil embedded pointer
		}
		name := layer + "." + snake(sf.Name)
		switch p := f.Addr().Interface().(type) {
		case *Counter:
			r[name] = func() float64 { return float64(p.Value()) }
		case **Histogram:
			if h := *p; h != nil {
				r[name+"_count"] = func() float64 { return float64(h.Count()) }
				r[name+"_p99_us"] = func() float64 { return sim.Time(h.P99()).Micros() }
			}
		}
	}
}

// Snapshot reads every entry into one map, by name.
func (r Registry) Snapshot() map[string]float64 {
	s := make(map[string]float64, len(r))
	for name, read := range r {
		s[name] = read()
	}
	return s
}

// wordEdge matches where a Go name's next word starts, acronyms kept
// whole: FetchRetries → Fetch|Retries, QPResets → QP|Resets.
var wordEdge = regexp.MustCompile(`([a-z0-9])([A-Z])|([A-Z])([A-Z][a-z])`)

func snake(s string) string {
	return strings.ToLower(wordEdge.ReplaceAllString(s, "${1}${3}_${2}${4}"))
}
