package fuzzyid

// This lint test enforces the public-API documentation contract promised in
// OPERATIONS.md: every exported symbol of the facade (fuzzyid.go), the wire
// codec (internal/wire), the record store and its journal seam
// (internal/store), the persistence and replication layers
// (internal/persist, internal/replica), the protocol engines
// (internal/protocol), the cluster map (internal/cluster) and admission
// control (internal/qos) carries a doc comment stating its contract. It
// runs under plain `go test`, so the check gates CI and local work
// identically — no external linter needed (CI additionally runs
// staticcheck's ST1000/ST1020/ST1022 over the same packages, which this
// mirrors). TestNoOrphanPackages guards
// the other direction: no internal package survives that nothing runs.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// lintedDirs are the packages whose exported API must be fully documented.
var lintedDirs = []string{
	".", "internal/wire", "internal/store", "internal/persist", "internal/replica",
	"internal/protocol", "internal/cluster", "internal/qos",
}

func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range lintedDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			sawPkgDoc := false
			for path, f := range pkg.Files {
				if f.Doc != nil {
					sawPkgDoc = true
				}
				lintFile(t, fset, filepath.Base(path), f)
			}
			if !sawPkgDoc {
				t.Errorf("%s: package %s has no package comment", dir, pkg.Name)
			}
		}
	}
}

func lintFile(t *testing.T, fset *token.FileSet, name string, f *ast.File) {
	t.Helper()
	report := func(pos token.Pos, what string) {
		t.Errorf("%s:%d: %s is exported but undocumented", name, fset.Position(pos).Line, what)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
					if s.Name.IsExported() {
						lintFields(t, fset, name, s)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), n.Name)
						}
					}
				}
			}
		}
	}
}

// lintFields checks exported struct fields and interface methods of an
// exported type: each needs a doc or trailing line comment.
func lintFields(t *testing.T, fset *token.FileSet, name string, s *ast.TypeSpec) {
	t.Helper()
	var fields *ast.FieldList
	switch tt := s.Type.(type) {
	case *ast.StructType:
		fields = tt.Fields
	case *ast.InterfaceType:
		fields = tt.Methods
	default:
		return
	}
	for _, field := range fields.List {
		if field.Doc != nil || field.Comment != nil {
			continue
		}
		for _, n := range field.Names {
			if n.IsExported() {
				t.Errorf("%s:%d: %s.%s is exported but undocumented",
					name, fset.Position(n.Pos()).Line, s.Name.Name, n.Name)
			}
		}
	}
}

// TestNoOrphanPackages fails when a fuzzyid/internal/... package has no
// importing non-test file outside its own directory. Importers are the
// facade, other internal packages, the commands under cmd/ and the
// benchmark harness; tests and stand-alone demo programs do not count, so a
// package kept alive only by them is reported.
func TestNoOrphanPackages(t *testing.T) {
	internal := map[string]bool{} // internal package directories
	imported := map[string]bool{} // directories imported from outside themselves
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			internal[dir] = true
		}
		if !countsAsImporter(dir) {
			return nil
		}
		for _, imp := range f.Imports {
			if p := strings.TrimPrefix(strings.Trim(imp.Path.Value, `"`), "fuzzyid/"); p != dir {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for p := range internal {
		if !imported[p] {
			orphans = append(orphans, p)
		}
	}
	sort.Strings(orphans)
	for _, p := range orphans {
		t.Errorf("%s: no non-test file outside the package imports it; delete it or give it a caller", p)
	}
}

// countsAsImporter reports whether non-test files in dir keep the internal
// packages they import alive.
func countsAsImporter(dir string) bool {
	if dir == "." {
		return true
	}
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		if dir == root || strings.HasPrefix(dir, root+"/") {
			return true
		}
	}
	return false
}

// namedDocs are the documents whose cmd/…, internal/… and fuzzyid-<tool>
// names must resolve. CHANGES.md and ROADMAP.md are history and may name
// what is gone.
var namedDocs = []string{
	"README.md", "DESIGN.md", "OPERATIONS.md", "EXPERIMENTS.md",
	"benchmark/README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
}

var (
	// repoPathRE matches a cmd/ or internal/ path at the start of a word,
	// after "./" or inside a fuzzyid/ import path — not inside another
	// module's path such as golang.org/x/vuln/cmd/govulncheck.
	repoPathRE = regexp.MustCompile(`(?:^|[^\w./-]|\./|fuzzyid/)((?:cmd|internal)/[\w-]+(?:/[\w-]+)*(?:\.go)?)`)
	// toolRE matches a command name; each lives in cmd/<name>.
	toolRE = regexp.MustCompile(`\bfuzzyid-[a-z]+\b`)
)

// TestDocsNameExistingPaths fails when a document names a package, file or
// command that does not exist, so deleting one cannot leave a runbook
// pointing at it.
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range namedDocs {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(buf), "\n") {
			var named []string
			for _, m := range repoPathRE.FindAllStringSubmatch(line, -1) {
				named = append(named, m[1])
			}
			for _, tool := range toolRE.FindAllString(line, -1) {
				named = append(named, "cmd/"+tool)
			}
			for _, p := range named {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, p)
				}
			}
		}
	}
}
