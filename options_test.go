package simevo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
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
	for _, src := range parseModule(t, ".") {
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

// parseModule parses every non-test Go file of the module rooted at root,
// skipping testdata, hidden directories and nested modules such as bench/.
func parseModule(t *testing.T, root string) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file == root {
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
// (Inc, Add, Observe or Set) from exactly one non-test function
// of this module. The engine counts into its run snapshot, and
// EngineSnapshot.Publish turns the snapshot's progress into the globals;
// a second writer would count the same events twice or let the globals
// drift from the snapshots. Like TestOptionFieldsAreUsed the check is
// syntactic: it sees telemetry.X.M(...) calls, and X.M(...) inside
// internal/telemetry.
func TestEngineMetricsHaveOneWriter(t *testing.T) {
	const pkg = "internal/telemetry"
	files := parseModule(t, ".")
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
	write := map[string]bool{"Inc": true, "Add": true, "Observe": true, "Set": true}
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

// unusedDeclAllowed lists the top-level declarations of internal/ that no
// non-test file refers to and that stay, each with the reason.
var unusedDeclAllowed = map[string]string{
	"mpi.Comm.Charge":                   "ROADMAP item 1 (the work clock) gives it a caller",
	"parallel.ExchangeStats.P50RoundNs": "ROADMAP item 4 reads it",
	"transport.Wrap":                    "fault injection is test-only by design",
	"transport.Chaos.Frames":            "fault injection is test-only by design",
	"cputime.Thread":                    "the clock of the within-run ratio tests",
	"layout.Placement.Slot":             "read by the core and wire tests",
	"format.Design.WritePl":             "the Bookshelf .pl writer the CI ingestion smoke round-trips; a CLI flag for it would be a new knob",
	"core.WorstFirst":                   "the zero value of AllocOrder, named in its docs",
}

// implicitMethods are method names the standard library calls through an
// interface this module need not name (fmt.Stringer, error, errors.Is/As,
// http.Handler, sort.Interface, heap.Interface, io, encoding and json):
// a method with one of these names counts as used.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// TestDeclarationsAreUsed fails when a top-level func, method, type, var
// or const of a non-test file under internal/ is named by no non-test Go
// file of this module or of bench/ outside its own declaration: code only
// tests call is a second implementation that nothing ships. A reference
// that an oracle of the tests needs belongs in a _test.go file. Like
// TestOptionFieldsAreUsed the check is syntactic and matches identifiers
// by name, so it over-approximates use and never fails wrongly.
func TestDeclarationsAreUsed(t *testing.T) {
	files := append(parseModule(t, "."), parseModule(t, "bench")...)
	for _, msg := range unusedDecls(files, unusedDeclAllowed) {
		t.Error(msg)
	}
}

// unusedDecls reports each top-level declaration under internal/ whose
// name no file in files mentions outside the declaration's own source
// range, and each stale entry of allowed: one that is referenced, or that
// names no declaration.
func unusedDecls(files []sourceFile, allowed map[string]string) []string {
	type decl struct {
		key      string
		name     *ast.Ident
		file     *ast.File
		pos, end token.Pos
	}
	var decls []decl
	for _, src := range files {
		if !strings.HasPrefix(src.dir, "internal/") {
			continue
		}
		pkg := path.Base(src.dir)
		add := func(key string, name *ast.Ident, n ast.Node) {
			if name.Name != "_" {
				decls = append(decls, decl{pkg + "." + key, name, src.file, n.Pos(), n.End()})
			}
		}
		for _, d := range src.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") ||
					d.Recv != nil && implicitMethods[d.Name.Name] {
					continue
				}
				add(declName(d), d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name, s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(name.Name, name, s)
						}
					}
				}
			}
		}
	}

	type ref struct {
		file *ast.File
		pos  token.Pos
	}
	refs := map[string][]ref{}
	for _, src := range files {
		ast.Inspect(src.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs[id.Name] = append(refs[id.Name], ref{src.file, id.Pos()})
			}
			return true
		})
	}

	var msgs []string
	seen := map[string]bool{}
	for _, d := range decls {
		used := false
		for _, r := range refs[d.name.Name] {
			if r.file != d.file || r.pos < d.pos || r.pos >= d.end {
				used = true
				break
			}
		}
		if _, ok := allowed[d.key]; ok {
			seen[d.key] = true
			if used {
				msgs = append(msgs, d.key+" is allow-listed as unused but is referenced; drop it from the allow-list")
			}
			continue
		}
		if !used {
			msgs = append(msgs, d.key+" is referenced by no non-test file outside its own declaration; delete it, move it into a _test.go file, or allow-list it with a reason")
		}
	}
	for key := range allowed {
		if !seen[key] {
			msgs = append(msgs, "allow-listed "+key+" is not a top-level declaration under internal/; drop it from the allow-list")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// TestUnusedDeclsCases runs the TestDeclarationsAreUsed rule on in-memory
// sources: it flags what nothing outside the declaration names, accepts a
// reference from bench/ alone, and fails on stale allow-list entries.
func TestUnusedDeclsCases(t *testing.T) {
	const lib = `package a

type T struct{ next *T }

func (T) String() string { return "" }

func Used() {}

func Dead() { Dead() }

func BenchOnly() {}

func (t *T) Kept() {}

const (
	unusedConst = iota
	usedConst
)

var _ = usedConst
`
	cases := []struct {
		name    string
		bench   string // bench/ source, or "" for none
		allowed map[string]string
		want    []string // the keys the expected messages name
	}{
		{
			name: "unreferenced",
			want: []string{"a.BenchOnly", "a.Dead", "a.T.Kept", "a.unusedConst"},
		},
		{
			name:  "bench reference",
			bench: "package main\n\nfunc main() { a.BenchOnly(); new(a.T).Kept() }\n",
			want:  []string{"a.Dead", "a.unusedConst"},
		},
		{
			name: "allow-list",
			allowed: map[string]string{
				"a.BenchOnly": "allowed", "a.Dead": "allowed",
				"a.T.Kept": "allowed", "a.unusedConst": "allowed",
			},
		},
		{
			name: "stale allow-list",
			allowed: map[string]string{
				"a.BenchOnly": "allowed", "a.Dead": "allowed",
				"a.T.Kept": "allowed", "a.unusedConst": "allowed",
				"a.Used": "referenced by cmd/", "a.Gone": "declared nowhere",
			},
			want: []string{"a.Gone", "a.Used"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			parse := func(dir, src string) sourceFile {
				f, err := parser.ParseFile(fset, dir+"/x.go", src, 0)
				if err != nil {
					t.Fatal(err)
				}
				return sourceFile{dir, f}
			}
			files := []sourceFile{
				parse("internal/a", lib),
				parse("cmd/x", "package main\n\nfunc main() { a.Used(); _ = a.T{} }\n"),
			}
			if tc.bench != "" {
				files = append(files, parse("bench", tc.bench))
			}
			msgs := unusedDecls(files, tc.allowed)
			if len(msgs) != len(tc.want) {
				t.Fatalf("got %d messages %q, want %d naming %v", len(msgs), msgs, len(tc.want), tc.want)
			}
			for _, key := range tc.want {
				if !slices.ContainsFunc(msgs, func(m string) bool { return slices.Contains(strings.Fields(m), key) }) {
					t.Errorf("no message names %s: %q", key, msgs)
				}
			}
		})
	}
}
