package simevo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// optionStructs are the configuration structs whose every exported field
// must be used by the program, keyed by the directory that declares them.
var optionStructs = []struct{ dir, name string }{
	{"internal/core", "Config"},
	{"internal/parallel", "Options"},
	{"internal/mpi", "Options"},
	{"internal/service/jobs", "Spec"},
}

// unusedOptionAllowed lists the exported option fields that may stay
// unreferenced, each with the reason.
var unusedOptionAllowed = map[string]string{
	"core.Config.AllocWorkers":  "only bench/ assigns it",
	"parallel.Options.Tolerate": "only bench/ assigns it",
}

// optionRef is one syntactic reference to a field name: a selector x.Name
// or a composite-literal key Name:, with the function it appears in.
type optionRef struct {
	dir, fn, name string
}

// housekeeping reports whether a function only defaults, validates or
// normalizes its package's options; references there do not count as use.
func housekeeping(fn string) bool {
	fn = strings.ToLower(fn)
	for _, p := range []string{"default", "validate", "normalize"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// TestOptionFieldsAreUsed fails when an exported field of an option struct
// is referenced by no non-test file of this module outside its own
// package's default, validate or normalize functions: an option nothing
// reads is dead weight that callers still set and its docs still describe.
// The check is syntactic (go/parser and go/ast only) and matches fields
// by name, so a field sharing its name with a used field of another
// struct passes.
func TestOptionFieldsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	var refs []optionRef
	fields := map[string][]string{} // "dir.Type" -> exported field names
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(file, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module, such as bench/
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, name := range fl.Names {
								if name.IsExported() {
									key := dir + "." + n.Name.Name
									fields[key] = append(fields[key], name.Name)
								}
							}
						}
					}
				case *ast.SelectorExpr:
					refs = append(refs, optionRef{dir, fn, n.Sel.Name})
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						refs = append(refs, optionRef{dir, fn, id.Name})
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowSeen := map[string]bool{}
	for _, s := range optionStructs {
		names := fields[s.dir+"."+s.name]
		if len(names) == 0 {
			t.Fatalf("struct %s not found in %s", s.name, s.dir)
		}
		label := path.Base(s.dir) + "." + s.name
		used := map[string]bool{}
		for _, r := range refs {
			if r.dir == s.dir && housekeeping(r.fn) {
				continue
			}
			used[r.name] = true
		}
		var dead []string
		for _, name := range names {
			key := label + "." + name
			if _, ok := unusedOptionAllowed[key]; ok {
				allowSeen[key] = true
				if used[name] {
					t.Errorf("%s is allow-listed as unused but is referenced; drop it from unusedOptionAllowed", key)
				}
				continue
			}
			if !used[name] {
				dead = append(dead, key)
			}
		}
		sort.Strings(dead)
		for _, key := range dead {
			t.Errorf("%s is referenced by no non-test file outside its package's default, validate and normalize functions; delete it or use it", key)
		}
	}
	for key := range unusedOptionAllowed {
		if !allowSeen[key] {
			t.Errorf("allow-listed %s is not a field of an option struct; drop it from unusedOptionAllowed", key)
		}
	}
}
