package jetty_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches markdown links [text](target).
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// requiredDocs are the documents the repository's cross-reference web
// hangs off; each must exist and be linked from README.md.
var requiredDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "TRACES.md", "PERFORMANCE.md"}

// TestDocLinks verifies that every relative link in the curated docs
// resolves to an existing file, that their code spans name live
// identifiers, and that the core documents reference each other. CI runs it as the docs check. (PAPER.md/PAPERS.md/
// SNIPPETS.md are machine-extracted reference dumps, not curated docs,
// so they are exempt.)
func TestDocLinks(t *testing.T) {
	mds := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TRACES.md", "PERFORMANCE.md", "ROADMAP.md", "CHANGES.md"}

	for _, md := range mds {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external: not checked offline
			}
			// Strip an intra-document anchor.
			path, _, _ := strings.Cut(target, "#")
			if path == "" {
				continue // pure anchor within the same file
			}
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s: link target %q does not resolve: %v", md, target, err)
			}
		}
	}
	t.Run("identifiers", checkDocIdentifiers)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range requiredDocs {
		if _, err := os.Stat(doc); err != nil {
			t.Errorf("required document %s missing: %v", doc, err)
			continue
		}
		if !strings.Contains(string(readme), doc) {
			t.Errorf("README.md does not reference %s", doc)
		}
	}
}

// fence matches a fenced code block; codeSpan an inline code span.
var (
	fence    = regexp.MustCompile("(?s)```.*?```")
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	pkgName  = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
)

// identifierDocs are the curated docs whose code spans must name live
// identifiers. ROADMAP.md and CHANGES.md are exempt: they cite proposed
// and since-deleted names on purpose.
var identifierDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TRACES.md", "PERFORMANCE.md"}

// checkDocIdentifiers resolves every backticked pkg.Name in the curated
// docs, where pkg is an internal/ package, against that package's
// exported top-level declarations, so a rename or deletion cannot leave
// the docs citing an identifier that no longer exists.
func checkDocIdentifiers(t *testing.T) {
	exported := map[string]map[string]bool{} // package → exported names
	declared := func(pkg string) map[string]bool {
		if names, ok := exported[pkg]; ok {
			return names
		}
		var names map[string]bool
		dir := filepath.Join("internal", pkg)
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			names = map[string]bool{}
			pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				for _, f := range p.Files {
					for name, obj := range f.Scope.Objects {
						if ast.IsExported(name) && obj.Kind != ast.Bad {
							names[name] = true
						}
					}
				}
			}
		}
		exported[pkg] = names
		return names
	}

	checked := 0
	for _, md := range identifierDocs {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllString(string(raw), "")
		for _, span := range codeSpan.FindAllString(text, -1) {
			for _, m := range pkgName.FindAllStringSubmatch(span, -1) {
				names := declared(m[1])
				if names == nil {
					continue // not an internal/ package (runtime.X, http.X, ...)
				}
				checked++
				if !names[m[2]] {
					t.Errorf("%s: %s names no exported declaration of internal/%s", md, span, m[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no internal identifiers found in the docs: the scan is broken")
	}
	t.Logf("%d identifier references resolved", checked)
}
