package woha_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// driftDocs are the documents that tell a reader what to run. CHANGES.md and
// ROADMAP.md are history, and benchmark/ is owned by the benchmark.
var driftDocs = []string{
	"README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

var (
	makefileTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	// A make invocation is `make x` in a code span, or a fenced line that
	// starts with it; "make" in running prose is not one.
	makeInSpan   = regexp.MustCompile("`make ([A-Za-z0-9_-]+)")
	makeInFence  = regexp.MustCompile(`^\s*make ([A-Za-z0-9_-]+)`)
	benchJSONRef = regexp.MustCompile(`BENCH_\w*\.json`)
	// A test function a document names: an identifier in a code span, where
	// a trailing * or … stands for any suffix.
	codeSpan     = regexp.MustCompile("`[^`]+`")
	testFuncRef  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*[*…]?`)
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	makeRunFlag  = regexp.MustCompile(`-(?:run|fuzz) '([^']*)'`)
	// A Go name a document writes in a code span: pkg.Name or
	// pkg.Type.Member. Only spans whose pkg is a package of the module are
	// checked.
	goNameRef = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// goDecls returns, per package name, every exported name the module's
// non-test Go files declare: top-level names as "Name", and methods, struct
// fields and interface methods both as "Type.Member" and as "Member", since
// prose and profiles write a method as pkg.Method.
func goDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		add := func(name string) {
			if member := name[strings.LastIndex(name, ".")+1:]; ast.IsExported(member) {
				names[name] = true
				names[member] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(decl.Name.Name)
				} else {
					add(recvTypeName(decl.Recv.List[0].Type) + "." + decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(n.Name)
						}
					case *ast.TypeSpec:
						add(spec.Name.Name)
						var members []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields.List
						case *ast.InterfaceType:
							members = typ.Methods.List
						}
						for _, m := range members {
							for _, n := range m.Names {
								add(spec.Name.Name + "." + n.Name)
							}
							if len(m.Names) == 0 { // an embedded type
								add(spec.Name.Name + "." + recvTypeName(m.Type))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// recvTypeName returns the type name in a receiver or embedded-field type
// expression: T for T, *T, T[P], pkg.T and their combinations.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// testFuncs returns the name of every test, benchmark, fuzz target and
// example declared in a _test.go file of the module.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// namesTestFunc reports whether ref, a name as a document writes it, names a
// function in funcs.
func namesTestFunc(ref string, funcs map[string]bool) bool {
	prefix := strings.TrimRight(ref, "*…")
	if prefix == ref {
		return funcs[ref]
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// TestDocsNameOnlyWhatExists keeps the documents and the tree from drifting
// apart: every make target a document names is in the Makefile, every test
// function a document or a Makefile -run/-fuzz pattern names exists, every
// pkg.Name or pkg.Type.Member a code span names is declared, and no
// document names a BENCH_*.json report (measurements come from
// `go run ./benchmark` and its benchmark/BASELINE.json).
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	if !targets["ci"] || !targets["verify"] {
		t.Fatalf("Makefile targets not parsed: %v", targets)
	}
	funcs := testFuncs(t)
	if !funcs["TestDocsNameOnlyWhatExists"] {
		t.Fatal("test functions not parsed")
	}
	decls := goDecls(t)
	if !decls["planner"]["Planner.Plan"] || !decls["cluster"]["Config.Nodes"] {
		t.Fatal("Go declarations not parsed")
	}

	// A stale -run or -fuzz pattern selects nothing and passes silently. An
	// alternative matching the empty string, such as ^$, selects no test on
	// purpose.
	for _, m := range makeRunFlag.FindAllStringSubmatch(string(mk), -1) {
		for _, alt := range strings.Split(strings.ReplaceAll(m[1], "$$", "$"), "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile pattern %q: %v", m[1], err)
				continue
			}
			if re.MatchString("") {
				continue
			}
			matched := false
			for f := range funcs {
				if re.MatchString(f) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("Makefile pattern %q: %q matches no test function", m[1], alt)
			}
		}
	}

	for _, doc := range driftDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Error(err)
			continue
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			named := makeInSpan.FindAllStringSubmatch(line, -1)
			if fenced {
				named = append(named, makeInFence.FindAllStringSubmatch(line, -1)...)
			}
			for _, m := range named {
				if !targets[m[1]] {
					t.Errorf("%s:%d names `make %s`, which is not a Makefile target", doc, i+1, m[1])
				}
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, ref := range testFuncRef.FindAllString(span, -1) {
					if !namesTestFunc(ref, funcs) {
						t.Errorf("%s:%d names %s, which no _test.go declares", doc, i+1, ref)
					}
				}
				for _, m := range goNameRef.FindAllStringSubmatch(span, -1) {
					names, ok := decls[m[1]]
					if !ok {
						continue
					}
					name := m[2]
					if m[3] != "" {
						name += "." + m[3]
					}
					if !names[name] {
						t.Errorf("%s:%d names %s.%s, which package %s does not declare", doc, i+1, m[1], name, m[1])
					}
				}
			}
			if ref := benchJSONRef.FindString(line); ref != "" {
				t.Errorf("%s:%d names %s; quote a metric of `go run ./benchmark` instead", doc, i+1, ref)
			}
		}
	}
}
