package obs

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// buildAll builds every instrument bundle on one registry, binding each Vec
// family to one value, so the registry carries every declared series. A
// malformed declaration panics here, which is what makes it fail in CI.
func buildAll() *Registry {
	reg := NewRegistry()
	o := New(reg, nil)
	o.EnableHealth(HealthConfig{})
	o.NewQueueStats("DSL")
	o.NewPlannerStats()
	o.NewLiveStats()
	o.NewRunnerStats()
	o.NewAdmissionStats("feasible")
	o.NewFedStats("least-loaded", 2)
	o.Decisions.With("WOHA-LPF")
	sim := o.NewSimStats()
	sim.Events.With("arrival")
	sim.Suppressed.With("busy")
	return reg
}

// declared returns name after checking that a bundle declares it, so a test
// reading a series by name fails on a misspelt or deleted one instead of
// looking for a series that can never appear.
func declared(t *testing.T, name string) string {
	t.Helper()
	buildAll()
	if _, ok := declaredBy.Load(name); !ok {
		t.Fatalf("series %s is not declared by any bundle", name)
	}
	return name
}

var labelKey = regexp.MustCompile(`([a-z_]+)="`)

// registered returns "name type key,key" for every family on reg.
func registered(reg *Registry) map[string]bool {
	out := map[string]bool{}
	for _, f := range reg.families {
		keys := map[string]bool{}
		for _, m := range f.series {
			for _, k := range labelKey.FindAllStringSubmatch(m.labels(), -1) {
				keys[k[1]] = true
			}
		}
		out[catalogueRow(f.name, f.typ, keys)] = true
	}
	return out
}

func catalogueRow(name, typ string, keys map[string]bool) string {
	var ks []string
	for k := range keys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return name + " " + typ + " " + strings.Join(ks, ",")
}

var backticked = regexp.MustCompile("`([^`]+)`")

// documented returns "name type key,key" for every row of the Metric
// catalogue table in OBSERVABILITY.md.
func documented(t *testing.T) map[string]bool {
	raw, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "## Metric catalogue")
	if start < 0 {
		t.Fatal("OBSERVABILITY.md has no Metric catalogue section")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	out := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `woha_") {
			continue
		}
		cells := strings.Split(line, "|")
		keys := map[string]bool{}
		for _, k := range backticked.FindAllStringSubmatch(cells[3], -1) {
			keys[k[1]] = true
		}
		out[catalogueRow(strings.Trim(strings.TrimSpace(cells[1]), "`"), strings.TrimSpace(cells[2]), keys)] = true
	}
	return out
}

// TestCatalogueMatchesRegistry holds the OBSERVABILITY.md metric catalogue
// to the declarations: every registered (name, type, label keys) has its
// row, and every row is registered.
func TestCatalogueMatchesRegistry(t *testing.T) {
	reg, doc := registered(buildAll()), documented(t)
	for row := range reg {
		if !doc[row] {
			t.Errorf("registered but not in the OBSERVABILITY.md catalogue: %s", row)
		}
	}
	for row := range doc {
		if !reg[row] {
			t.Errorf("in the OBSERVABILITY.md catalogue but not registered: %s", row)
		}
	}
	// buildAll must bind every declared family, or a Vec nobody bound
	// would escape both checks above.
	names := map[string]bool{}
	for row := range reg {
		names[strings.Fields(row)[0]] = true
	}
	declaredBy.Range(func(name, where any) bool {
		if n := name.(string); strings.HasPrefix(n, "woha_") && !names[n] {
			t.Errorf("%s (declared by %s) is not built by buildAll", n, where)
		}
		return true
	})
}

var seriesName = regexp.MustCompile(`woha_[a-z0-9_]*[a-z0-9_]`)

// TestProseNamesDeclaredSeries checks the series names the documents use in
// prose: a full woha_… name must be declared (a histogram's _bucket, _sum
// and _count samples count as its name), and a family prefix ending in _
// must begin at least one declared name.
func TestProseNamesDeclaredSeries(t *testing.T) {
	reg := buildAll()
	var names []string
	for _, f := range reg.families {
		names = append(names, f.name)
		if f.typ == "histogram" {
			names = append(names, f.name+"_bucket", f.name+"_sum", f.name+"_count")
		}
	}
	isName := map[string]bool{}
	for _, n := range names {
		isName[n] = true
	}
	for _, doc := range []string{
		"README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md",
		filepath.Join(".claude", "skills", "verify", "SKILL.md"),
	} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Error(err)
			continue
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range seriesName.FindAllString(line, -1) {
				if isName[m] {
					continue
				}
				if strings.HasSuffix(m, "_") && prefixOfAny(m, names) {
					continue
				}
				t.Errorf("%s:%d names %s, which no bundle declares", doc, i+1, m)
			}
		}
	}
}

func prefixOfAny(prefix string, names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// TestDeclarePanicsOnMalformedDeclaration pins that a bad declaration fails
// when its bundle is built, not at a user's first scrape.
func TestDeclarePanicsOnMalformedDeclaration(t *testing.T) {
	buildAll() // declares woha_heartbeats_total for the duplicate case
	reg := NewRegistry()
	for _, tc := range []struct {
		name    string
		declare func()
	}{
		{"no help", func() {
			declare(reg, &struct {
				C *Counter `metric:"test_no_help"`
			}{}, nil)
		}},
		{"unknown bucket set", func() {
			declare(reg, &struct {
				H *Histogram `metric:"test_bad_buckets" buckets:"decades" help:"h"`
			}{}, nil)
		}},
		{"histogram without buckets", func() {
			declare(reg, &struct {
				H *Histogram `metric:"test_no_buckets" help:"h"`
			}{}, nil)
		}},
		{"not a series handle", func() {
			declare(reg, &struct {
				X int `metric:"test_not_handle" help:"x"`
			}{}, nil)
		}},
		{"Vec with two label keys", func() {
			declare(reg, &struct {
				V Vec[Counter] `metric:"test_vec_two_keys" labels:"a,b" help:"v"`
			}{}, nil)
		}},
		{"duplicate name", func() {
			declare(reg, &struct {
				C *Counter `metric:"woha_heartbeats_total" help:"again"`
			}{}, nil)
		}},
		{"label without a value", func() {
			declare(reg, &struct {
				C *Counter `metric:"test_unbound_label" labels:"queue" help:"c"`
			}{}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("declare accepted the declaration")
				}
			}()
			tc.declare()
		})
	}
}
