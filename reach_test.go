package disco

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/unreached.golden")

// unreachedReasons are the only reasons testdata/unreached.golden may
// give for keeping a declaration no served configuration runs:
//
//	ref      a test compares served code against it (an oracle, a
//	         readable form of a hash, a reference iterator)
//	fixture  tests of more than one package use it, so it cannot live
//	         in one package's _test.go files
var unreachedReasons = map[string]bool{"ref": true, "fixture": true}

// TestReachability lists every top-level declaration of the module that
// nothing a served configuration runs can reach, and checks the list
// against testdata/unreached.golden. The roots are the main and init
// functions, every exported identifier of this facade package and every
// package-level variable initializer; edges are the identifiers a
// declaration's source uses; a method is also reached when its type is
// and its name is in the method set of any interface the module or a
// package it imports declares or spells (fmt, sort and encoding/json
// call such methods without naming them). Test files are not parsed.
func TestReachability(t *testing.T) {
	got, err := unreachedDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "unreached.golden")
	want, err := readUnreachedGolden(path)
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("%v (run with -update)", err)
	}
	if *update {
		var b strings.Builder
		b.WriteString("# Declarations no served configuration reaches, one per line with its\n" +
			"# reason (ref or fixture); see TestReachability in reach_test.go.\n")
		for _, id := range got {
			reason := want[id]
			if reason == "" {
				reason = "TODO"
			}
			fmt.Fprintf(&b, "%s %s\n", id, reason)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	unreached := make(map[string]bool, len(got))
	for _, id := range got {
		unreached[id] = true
		if _, ok := want[id]; !ok {
			t.Errorf("%s: no served configuration reaches it; call it from served code, delete it, "+
				"or list it in %s as ref or fixture", id, path)
		}
	}
	for id, reason := range want {
		switch {
		case !unreached[id]:
			t.Errorf("%s is listed in %s but is reached or gone (run with -update)", id, path)
		case !unreachedReasons[reason]:
			t.Errorf("%s: reason %q in %s is neither ref nor fixture", id, reason, path)
		}
	}
}

// readUnreachedGolden parses "<id> <reason>" lines; # starts a comment.
func readUnreachedGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<id> <reason>\", got %q", path, i+1, line)
		}
		out[f[0]] = f[1]
	}
	return out, nil
}

// modPackage is one type-checked non-test package of the module.
type modPackage struct {
	name  string // import path without the module prefix; the root is the module name
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// modLoader type-checks the module's packages from source, sharing one
// *types.Package per import path so objects compare by identity across
// packages; the standard library comes from the source importer.
type modLoader struct {
	fset   *token.FileSet
	module string
	dirs   map[string]string // import path -> directory
	pkgs   map[string]*modPackage
	std    types.ImporterFrom
}

func (l *modLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *modLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *modLoader) load(path string) (*modPackage, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	dir := l.dirs[path]
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &modPackage{name: strings.TrimPrefix(path, l.module+"/")}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// unreachedDecls returns, sorted, the id of every top-level declaration
// and method of the module rooted at root that no root reaches: "pkg.Name"
// or "pkg.Type.Method", pkg being the import path without the module
// prefix.
func unreachedDecls(root string) ([]string, error) {
	fset := token.NewFileSet()
	l := &modLoader{
		fset:   fset,
		module: "disco",
		dirs:   make(map[string]string),
		pkgs:   make(map[string]*modPackage),
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		ip := l.module
		if rel := filepath.ToSlash(path); rel != "." {
			ip += "/" + rel
		}
		l.dirs[ip] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*modPackage
	for ip := range l.dirs {
		p, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}

	// Every declaration's source, keyed by the object it declares; a
	// method by its generic origin.
	type decl struct {
		node ast.Node
		info *types.Info
	}
	decls := make(map[types.Object]decl)
	var roots []types.Object
	var initRoots []decl // init functions and package-level variable initializers
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						initRoots = append(initRoots, decl{d, p.info})
						continue
					}
					obj := p.info.Defs[d.Name]
					decls[obj] = decl{d, p.info}
					if d.Recv == nil && d.Name.Name == "main" && p.pkg.Name() == "main" {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[p.info.Defs[s.Name]] = decl{s, p.info}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := p.info.Defs[n]; obj != nil && n.Name != "_" {
									decls[obj] = decl{s, p.info}
								}
							}
							if d.Tok == token.VAR && len(s.Values) > 0 {
								for _, v := range s.Values {
									initRoots = append(initRoots, decl{v, p.info})
								}
							}
						}
					}
				}
			}
		}
		if p.name == l.module {
			for _, n := range p.pkg.Scope().Names() {
				if obj := p.pkg.Scope().Lookup(n); obj.Exported() {
					roots = append(roots, obj)
				}
			}
		}
	}

	ifaceNames := interfaceMethodNames(pkgs)
	reached := make(map[types.Object]bool)
	var work []types.Object
	var mark func(types.Object)
	mark = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if _, ok := decls[obj]; !ok || reached[obj] {
			return
		}
		reached[obj] = true
		work = append(work, obj)
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); ifaceNames[m.Name()] {
						mark(m)
					}
				}
			}
		}
	}
	visit := func(d decl) {
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.info.Uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}
	for _, obj := range roots {
		mark(obj)
	}
	for _, d := range initRoots {
		visit(d)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		visit(decls[obj])
	}

	var out []string
	for obj := range decls {
		if reached[obj] || obj.Name() == "_" {
			continue
		}
		id := obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				id = t.(*types.Named).Obj().Name() + "." + id
			}
		}
		out = append(out, strings.TrimPrefix(obj.Pkg().Path(), l.module+"/")+"."+id)
	}
	sort.Strings(out)
	return out, nil
}

// interfaceMethodNames collects the method names of every interface type
// the module's code spells and of every named interface declared by the
// module or by a package it imports, directly or not.
func interfaceMethodNames(pkgs []*modPackage) map[string]bool {
	names := map[string]bool{"Error": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return names
}
