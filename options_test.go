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
	var refs []optionRef
	fields := map[string][]string{} // "dir.Type" -> exported field names
	for _, src := range parseModule(t) {
		for _, decl := range src.file.Decls {
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
									key := src.dir + "." + n.Name.Name
									fields[key] = append(fields[key], name.Name)
								}
							}
						}
					}
				case *ast.SelectorExpr:
					refs = append(refs, optionRef{src.dir, fn, n.Sel.Name})
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						refs = append(refs, optionRef{src.dir, fn, id.Name})
					}
				}
				return true
			})
		}
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

// sourceFile is one parsed non-test Go file of this module and the
// slash-separated directory that holds it.
type sourceFile struct {
	dir  string
	file *ast.File
}

// parseModule parses every non-test Go file of this module, skipping
// testdata, hidden directories and nested modules such as bench/.
func parseModule(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
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
		files = append(files, sourceFile{filepath.ToSlash(filepath.Dir(file)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// engineFamily reports whether a telemetry global belongs to the engine
// family, the metrics EngineSnapshot.Publish derives from run snapshots.
func engineFamily(name string) bool {
	for _, p := range []string{"Engine", "AllocSub", "Scan", "Congest"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return name == "TimingRebuilds"
}

// TestEngineMetricsHaveOneWriter keeps the engine's counters on a single
// write path: every engine-family global of internal/telemetry is updated
// (Inc, Add, Observe, ObserveN or Set) from exactly one non-test function
// of this module. The engine counts into its run snapshot, and
// EngineSnapshot.Publish turns the snapshot's progress into the globals;
// a second writer would count the same events twice or let the globals
// drift from the snapshots. Like TestOptionFieldsAreUsed the check is
// syntactic: it sees telemetry.X.M(...) calls, and X.M(...) inside
// internal/telemetry.
func TestEngineMetricsHaveOneWriter(t *testing.T) {
	const pkg = "internal/telemetry"
	files := parseModule(t)
	writers := map[string]map[string]bool{} // global -> "dir.func" writing it
	for _, src := range files {
		if src.dir != pkg {
			continue
		}
		for _, decl := range src.file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if engineFamily(name.Name) {
						writers[name.Name] = map[string]bool{}
					}
				}
			}
		}
	}
	if len(writers) == 0 {
		t.Fatal("no engine-family globals found in " + pkg)
	}
	write := map[string]bool{"Inc": true, "Add": true, "Observe": true, "ObserveN": true, "Set": true}
	for _, src := range files {
		for _, decl := range src.file.Decls {
			fn := src.dir + "." + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !write[sel.Sel.Name] {
					return true
				}
				global := ""
				switch x := sel.X.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && id.Name == "telemetry" {
						global = x.Sel.Name
					}
				case *ast.Ident:
					if src.dir == pkg {
						global = x.Name
					}
				}
				if w, ok := writers[global]; ok {
					w[fn] = true
				}
				return true
			})
		}
	}
	names := make([]string, 0, len(writers))
	for name := range writers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if fns := writers[name]; len(fns) != 1 {
			list := make([]string, 0, len(fns))
			for fn := range fns {
				list = append(list, fn)
			}
			sort.Strings(list)
			t.Errorf("telemetry.%s is written by %d functions %v, want exactly one (EngineSnapshot.Publish)", name, len(fns), list)
		}
	}
}

// declName names a top-level declaration: Recv.Func for methods, the
// function name for functions, and "" for everything else.
func declName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
