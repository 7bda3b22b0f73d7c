//go:build ignore

// unused lists every exported identifier in internal/ that no non-test
// file of the module uses: a package-level name, a method, or a field of
// a named struct type or of a package-level variable's struct type. It
// type-checks the non-test files of every package in `go list ./...`
// with the standard library alone (go/parser, go/types, the "source"
// importer), once under the default build tags and once under -tags
// simcheck; an identifier is listed only when neither build uses it.
//
// Usage, from the repository root: go run ./scripts/unused.go [-all] [-allow file]
//
// Entries named in the allowlist (default scripts/unused_allow.txt, one
// `entry  reason` per line, # comments) are not printed. The exit status
// is 1 when an entry outside the allowlist is printed or when an
// allowlist line names an identifier that is no longer unused, so the
// list cannot grow or go stale unnoticed, and 2 when the module does
// not type-check or the allowlist cannot be read. -all prints every
// entry, allowlisted or not, and exits 0 once the lists are made.
//
// What counts as a use, beyond a reference in non-test code:
//   - a generic type's methods and fields are used through any instance;
//   - a method whose name is a method of an interface type in the module
//     (named or literal), or of fmt.Stringer, error, errors' Unwrap,
//     sort.Interface or heap.Interface, may be called through that
//     interface, so it is not listed;
//   - embedded fields are not listed;
//   - stats.Counter and *stats.Histogram fields are used, because
//     stats.Registry.Register reads them by reflection.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module = "repro"

// tagSets are the builds an identifier must be unused in to be listed.
var tagSets = []string{"", "simcheck"}

// stdMethods are the method names of the standard interfaces the module's
// types satisfy without naming them.
var stdMethods = []string{"String", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop"}

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// defn is one exported identifier defined in internal/.
type defn struct {
	key    string // e.g. internal/sim.Env.Stop
	pos    token.Position
	method string // the method's name, "" when not a method
}

func main() {
	all := flag.Bool("all", false, "print every entry, allowlisted or not, and exit 0")
	allowPath := flag.String("allow", "scripts/unused_allow.txt", "allowlist file")
	flag.Parse()

	defs := map[string]defn{}
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	for _, m := range stdMethods {
		ifaceMethods[m] = true
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	for _, tags := range tagSets {
		if err := scan(fset, std, tags, defs, used, ifaceMethods); err != nil {
			fmt.Fprintf(os.Stderr, "unused: tags %q: %v\n", tags, err)
			os.Exit(2)
		}
	}

	var entries []defn
	for k, d := range defs {
		if used[k] || (d.method != "" && ifaceMethods[d.method]) {
			continue
		}
		entries = append(entries, d)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	allow, err := readAllow(*allowPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unused: %v\n", err)
		os.Exit(2)
	}
	bad := 0
	listed := map[string]bool{}
	for _, e := range entries {
		listed[e.key] = true
		if *all || !allow[e.key] {
			fmt.Printf("%s\t%s:%d\n", e.key, e.pos.Filename, e.pos.Line)
		}
		if !allow[e.key] {
			bad++
		}
	}
	var stale []string
	for k := range allow {
		if !listed[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		fmt.Printf("%s\tstale allowlist line: no longer an unused exported identifier\n", k)
	}
	if *all {
		return
	}
	if bad > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "unused: %d exported identifier(s) used only by tests or not at all, %d stale allowlist line(s)\n", bad, len(stale))
		os.Exit(1)
	}
}

// scan type-checks the module's non-test files under one tag set and adds
// the internal/ definitions, the uses and the interface method names it
// finds.
func scan(fset *token.FileSet, std types.ImporterFrom, tags string, defs map[string]defn, used, ifaceMethods map[string]bool) error {
	pkgs, err := goList(tags)
	if err != nil {
		return err
	}
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path, dir string, mode types.ImportMode) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.ImportFrom(path, dir, mode)
	})
	keyOf := map[types.Object]string{}
	for _, lp := range pkgs { // dependencies come first
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return err
		}
		checked[lp.ImportPath] = pkg
		if rel := strings.TrimPrefix(lp.ImportPath, module+"/"); strings.HasPrefix(rel, "internal/") {
			define(fset, pkg, rel, keyOf, defs)
		}
		for _, obj := range info.Uses {
			use(obj, keyOf, used)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

// define records the exported package-level names, methods and struct
// fields of one internal/ package.
func define(fset *token.FileSet, pkg *types.Package, rel string, keyOf map[types.Object]string, defs map[string]defn) {
	add := func(obj types.Object, key, method string) {
		keyOf[obj] = key
		if obj.Exported() {
			defs[key] = defn{key: key, pos: fset.Position(obj.Pos()), method: method}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		add(obj, rel+"."+name, "")
		t := obj.Type()
		switch obj := obj.(type) {
		case *types.TypeName:
			named, ok := t.(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				add(m, rel+"."+name+"."+m.Name(), m.Name())
			}
			t = named.Underlying()
		case *types.Var: // fields of an anonymous struct type, as tpcc.Mix's
		default:
			continue
		}
		st, ok := t.(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			f := st.Field(i)
			if !f.Embedded() && !reflected(f.Type()) {
				add(f, rel+"."+name+"."+f.Name(), "")
			}
		}
	}
}

// reflected reports whether a field of this type is read by
// stats.Registry.Register's reflection.
func reflected(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != module+"/internal/stats" {
		return false
	}
	return n.Obj().Name() == "Counter" || n.Obj().Name() == "Histogram"
}

// use marks the definition behind obj, through its generic origin, used.
func use(obj types.Object, keyOf map[types.Object]string, used map[string]bool) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if k, ok := keyOf[obj]; ok {
		used[k] = true
	}
}

// goList returns the module's packages under one tag set, each after its
// dependencies.
func goList(tags string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "-tags", tags, "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if !p.Standard && (p.ImportPath == module || strings.HasPrefix(p.ImportPath, module+"/")) {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// readAllow reads the allowlist: the first field of each line that is
// neither blank nor a # comment. A line without a reason is an error.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: %q has no reason", path, n, fields[0])
		}
		allow[fields[0]] = true
	}
	return allow, sc.Err()
}

type importerFunc func(path, dir string, mode types.ImportMode) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "", 0) }

func (f importerFunc) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return f(path, dir, mode)
}
