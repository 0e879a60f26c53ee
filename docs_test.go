package simcal

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
