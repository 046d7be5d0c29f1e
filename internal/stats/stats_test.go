package stats

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the generated counter table in OBSERVABILITY.md")

func TestMapOmitsZeroCounters(t *testing.T) {
	c := &Counters{Messages: 3, PageFetches: 1}
	m := c.Map()
	if len(m) != 2 || m["msgs_sent"] != 3 || m["page_fetches_served"] != 1 {
		t.Fatalf("map = %v", m)
	}
}

func TestStringIsStableAndSorted(t *testing.T) {
	c := &Counters{Messages: 2, Bytes: 100, LockRequests: 7}
	s := c.String()
	if s != c.String() {
		t.Fatal("String not stable")
	}
	// Alphabetical name order.
	if !(strings.Index(s, "bytes_sent=") < strings.Index(s, "lock_requests=") &&
		strings.Index(s, "lock_requests=") < strings.Index(s, "msgs_sent=")) {
		t.Fatalf("not sorted: %s", s)
	}
}

func TestEmptyCountersRenderEmpty(t *testing.T) {
	c := &Counters{}
	if c.String() != "" {
		t.Fatalf("empty counters rendered %q", c.String())
	}
}

// TestOneNameTable pins the vocabulary contract: Counters is a flat
// all-int64 struct (bench/e2e and Add reflect over it), every field has
// a unique non-empty name and says where it is attributed, and Map, Each
// and the JSON encoding (the metrics dump's per_node objects) all spell
// a counter the same way because they all read the tag.
func TestOneNameTable(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	seen := map[string]string{}
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if sf.Type.Kind() != reflect.Int64 {
			t.Errorf("%s is %s, want int64", sf.Name, sf.Type)
			continue
		}
		if names[i] == "" || sf.Tag.Get("at") == "" || sf.Tag.Get("help") == "" {
			t.Errorf("%s: incomplete tags %q", sf.Name, sf.Tag)
		}
		if prev, dup := seen[names[i]]; dup {
			t.Errorf("%s and %s share the name %q", prev, sf.Name, names[i])
		}
		seen[names[i]] = sf.Name
		v.Field(i).SetInt(int64(i + 1)) // distinct and non-zero
	}
	want := map[string]int64{}
	c.Each(func(name string, val int64) { want[name] = val })
	if len(want) != typ.NumField() {
		t.Fatalf("Each visited %d names for %d fields", len(want), typ.NumField())
	}
	if m := c.Map(); !reflect.DeepEqual(m, want) {
		t.Errorf("Map = %v\nwant  %v", m, want)
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON map[string]int64
	if err := json.Unmarshal(raw, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, want) {
		t.Errorf("JSON keys = %v\nwant       %v", fromJSON, want)
	}
}

func TestRegistryFoldIsSumOfRowsAndIdempotent(t *testing.T) {
	var total Counters
	r := NewRegistry(3, &total)
	if r.Total() != &total {
		t.Fatal("Total is not the fold destination")
	}
	r.At(0).Messages = 2
	r.At(2).Messages = 5
	r.At(1).Barriers = 1
	for i := 0; i < 2; i++ {
		if got := r.Fold(); got != &total || total.Messages != 7 || total.Barriers != 1 {
			t.Fatalf("fold %d: total = %+v", i, total)
		}
	}
	r.At(1).Messages++
	if r.Fold(); total.Messages != 8 || r.Rows()[2].Messages != 5 {
		t.Fatalf("fold after more events: total %d, row kept %d", total.Messages, r.Rows()[2].Messages)
	}
}

// counterTable renders the counter table of OBSERVABILITY.md from the
// field tags; the unit is carried by the name.
func counterTable() string {
	var b strings.Builder
	b.WriteString("| name | unit | attributed to | non-zero | counts |\n|---|---|---|---|---|\n")
	typ := reflect.TypeOf(Counters{})
	for i, name := range names {
		tag := typ.Field(i).Tag
		unit, when := "count", tag.Get("when")
		switch {
		case strings.HasSuffix(name, "_ns"):
			unit = "ns"
		case strings.Contains(name, "bytes"):
			unit = "bytes"
		}
		if when == "" {
			when = "any run"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", name, unit, tag.Get("at"), when, tag.Get("help"))
	}
	return b.String()
}

// TestObservabilityTable keeps the documented counter table equal to
// the one the tags generate; run with -update to rewrite it.
func TestObservabilityTable(t *testing.T) {
	const path, begin, end = "../../OBSERVABILITY.md", "<!-- counters:begin -->\n", "<!-- counters:end -->"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(doc, []byte(begin))
	j := bytes.Index(doc, []byte(end))
	if i < 0 || j < i {
		t.Fatalf("%s: counter table markers not found", path)
	}
	i += len(begin)
	want := counterTable()
	if string(doc[i:j]) == want {
		return
	}
	if !*update {
		t.Fatalf("%s counter table is stale; run go test ./internal/stats -run TestObservabilityTable -update", path)
	}
	out := append(append(append([]byte{}, doc[:i]...), want...), doc[j:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
