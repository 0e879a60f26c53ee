package simcal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docs are the documents whose commands a reader copies into a shell.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	goCommand   = regexp.MustCompile(`\bgo (?:run|build|test)\b`)
	quoted      = regexp.MustCompile(`'[^']*'`)
	exampleName = regexp.MustCompile(`\bExample(?:[A-Z_]\w*)?\b`)
	exampleFunc = regexp.MustCompile(`(?m)^func (Example\w*)\(`)
	snakeName   = regexp.MustCompile("`([a-z][a-z0-9]*(?:_[a-z0-9]+)*)`")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	repoPath    = regexp.MustCompile(`^(?:(?:cmd|internal|bench)/\S*|[\w.-]+\.(?:json|md))$`)
)

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// commandPaths returns the directories the ./<path> arguments of every go
// run, go build and go test command in doc name (./x/... names ./x). A command
// ends at a comment, a pipe, a redirect, a closing backtick or the end
// of its line; quoted arguments (-run patterns) are skipped.
func commandPaths(doc string) []string {
	var paths []string
	for _, line := range strings.Split(doc, "\n") {
		for _, m := range goCommand.FindAllStringIndex(line, -1) {
			cmd := quoted.ReplaceAllString(line[m[0]:], "''")
			if i := strings.IndexAny(cmd, "#|>;&`"); i >= 0 {
				cmd = cmd[:i]
			}
			for _, f := range strings.Fields(cmd) {
				if strings.HasPrefix(f, "./") {
					paths = append(paths, strings.TrimSuffix(strings.TrimSuffix(f, "..."), "/"))
				}
			}
		}
	}
	return paths
}

// Every directory a documented go command runs, builds or tests exists.
func TestDocsCommandPathsExist(t *testing.T) {
	for _, doc := range docs {
		for _, p := range commandPaths(readFile(t, doc)) {
			if st, err := os.Stat(p); err != nil || !st.IsDir() {
				t.Errorf("%s: a go command names %s, which is not a directory", doc, p)
			}
		}
	}
}

// Every repo path the docs put in backticks exists: a code span whose
// first word starts with cmd/, internal/ or bench/ (x/... names x), or
// that is a root-level .json or .md file name.
func TestDocsRepoPathsExist(t *testing.T) {
	for _, doc := range docs {
		for _, m := range codeSpan.FindAllStringSubmatch(readFile(t, doc), -1) {
			f := strings.Fields(m[1])
			if len(f) == 0 || !repoPath.MatchString(f[0]) {
				continue
			}
			p := f[0]
			if _, err := os.Stat(strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")); err != nil {
				t.Errorf("%s names `%s`, which does not exist", doc, p)
			}
		}
	}
}

// Every Example function the docs cite is defined in a _test.go file.
func TestDocsExamplesExist(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			if d != nil && d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range exampleFunc.FindAllSubmatch(b, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		for _, name := range exampleName.FindAllString(readFile(t, doc), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
}

// README's Quickstart shows core.ExampleCalibrator verbatim, so the code a
// reader starts from is the code tier-1 runs and checks.
func TestREADMEQuickstartIsExampleCalibrator(t *testing.T) {
	src := readFile(t, "internal/core/example_test.go")
	start := strings.Index(src, "func ExampleCalibrator() {")
	if start < 0 {
		t.Fatal("internal/core/example_test.go defines no ExampleCalibrator")
	}
	end := start + strings.Index(src[start:], "\n}\n") + len("\n}\n")
	_, quickstart, _ := strings.Cut(readFile(t, "README.md"), "## Quickstart")
	quickstart, _, _ = strings.Cut(quickstart, "\n## ")
	if !strings.Contains(quickstart, src[start:end]) {
		t.Errorf("README.md's Quickstart does not show ExampleCalibrator as internal/core/example_test.go defines it:\n%s", src[start:end])
	}
}

// traceNames parses internal/obs and returns the trace's record names —
// its Event* constants and ManifestName — and the JSON keys of the
// Record every line carries.
func traceNames(t *testing.T) (events, keys map[string]bool) {
	files, err := filepath.Glob("internal/obs/*.go")
	if err != nil {
		t.Fatal(err)
	}
	events, keys = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i >= len(n.Values) || !strings.HasPrefix(id.Name, "Event") && id.Name != "ManifestName" {
						continue
					}
					if lit, ok := n.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, _ := strconv.Unquote(lit.Value)
						events[v] = true
					}
				}
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Record" {
					for _, field := range st.Fields.List {
						tag, _ := strconv.Unquote(field.Tag.Value)
						key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
						keys[key] = true
					}
				}
			}
			return true
		})
	}
	if len(events) == 0 || len(keys) == 0 {
		t.Fatal("internal/obs declares no Event constants or no Record")
	}
	return events, keys
}

// README.md names every trace event internal/obs emits, and its
// Trace schema paragraph names no record that internal/obs does not
// declare: what the paragraph puts in backticks as a snake_case name is
// an event or a key of the record envelope.
func TestREADMETraceSchemaMatchesEvents(t *testing.T) {
	events, keys := traceNames(t)
	readme := readFile(t, "README.md")
	for e := range events {
		if !strings.Contains(readme, "`"+e+"`") {
			t.Errorf("README.md does not name the trace event `%s`", e)
		}
	}
	_, schema, ok := strings.Cut(readme, "**Trace schema.**")
	if !ok {
		t.Fatal("README.md has no **Trace schema.** paragraph")
	}
	schema, _, _ = strings.Cut(schema, "\n\n")
	for _, m := range snakeName.FindAllStringSubmatch(schema, -1) {
		if !events[m[1]] && !keys[m[1]] {
			t.Errorf("README.md's trace schema names `%s`, which internal/obs declares as no event", m[1])
		}
	}
}

// registeredMetrics parses the module's non-test Go files and returns
// the series names they register: the string literals passed to a
// Counter, Gauge or Histogram call, directly or through a series(…) or
// LabeledName(…) call whose first argument is the name (the label is
// added at run time).
func registeredMetrics(t *testing.T) map[string]bool {
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Counter" && sel.Sel.Name != "Gauge" && sel.Sel.Name != "Histogram" {
				return true
			}
			arg := call.Args[0]
			if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) > 0 {
				arg = inner.Args[0]
			}
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				v, _ := strconv.Unquote(lit.Value)
				names[v] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no Go file registers a metric")
	}
	return names
}

// metricDocs returns the code spans, each without a {…} label, of the
// two places the metric names are documented: README.md's paragraphs
// that speak of metrics, and DESIGN.md §8's "Metric names" table.
func metricDocs(t *testing.T) map[string][]string {
	var readme []string
	for _, para := range strings.Split(readFile(t, "README.md"), "\n\n") {
		if strings.Contains(strings.ToLower(para), "metric") {
			readme = append(readme, para)
		}
	}
	_, table, ok := strings.Cut(readFile(t, "DESIGN.md"), "\n### Metric names\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Metric names" section`)
	}
	table, _, _ = strings.Cut(table, "\n#")
	spans := map[string][]string{}
	for doc, text := range map[string]string{"README.md": strings.Join(readme, "\n\n"), "DESIGN.md §8": table} {
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			name, _, _ := strings.Cut(m[1], "{")
			spans[doc] = append(spans[doc], name)
		}
	}
	return spans
}

var dottedName = regexp.MustCompile(`^([a-z]+)\.[a-z_]+$`)

// Every metric name README.md's metric paragraphs and DESIGN.md §8's
// table put in backticks in dot form (under a prefix some registered
// name has) is registered by the program, and every registered name is
// documented in one of the two.
func TestDocsMetricNamesAreRegistered(t *testing.T) {
	registered := registeredMetrics(t)
	prefixes := map[string]bool{}
	for name := range registered {
		if m := dottedName.FindStringSubmatch(name); m != nil {
			prefixes[m[1]] = true
		}
	}
	documented := map[string]bool{}
	for doc, spans := range metricDocs(t) {
		for _, name := range spans {
			documented[name] = true
			if m := dottedName.FindStringSubmatch(name); m != nil && prefixes[m[1]] && !registered[name] {
				t.Errorf("%s names the metric `%s`, which no Go file registers", doc, name)
			}
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("the metric `%s` is registered but named in neither README.md's metric paragraphs nor DESIGN.md §8's table", name)
		}
	}
}
