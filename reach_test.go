// Reachability gate: every package-level declaration of the module is either
// reached from a program or listed, with a reason, in testdata/unreached.txt.
package nektarg_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachProgram reports whether the package in the module-relative directory
// dir is a program whose main roots the walk: cmd/*, examples/*, bench and
// scripts/benchjson.
func reachProgram(dir string) bool {
	return strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") ||
		dir == "bench" || dir == "scripts/benchjson"
}

func TestReachableSurface(t *testing.T) {
	unreached, err := unreachedSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := readUnreachedList("testdata/unreached.txt")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, id := range unreached {
		found[id] = true
		if listed[id] == "" {
			t.Errorf("%s: no program reaches it; delete it (with the tests that check only it) or list it in testdata/unreached.txt with a reason", id)
		}
	}
	var stale []string
	for id := range listed {
		if !found[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range stale {
		t.Errorf("%s: listed in testdata/unreached.txt but a program reaches it or it is gone; drop the line", id)
	}
}

// readUnreachedList parses "identifier reason" lines, where the reason is
// oracle (a reference a test compares against), harness (test or benchmark
// bundle support) or item-N (the ROADMAP item that will reach or delete it).
func readUnreachedList(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	listed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !validReason(fields[1]) {
			return nil, fmt.Errorf("%s:%d: want \"identifier reason\" with reason oracle, harness or item-N, got %q", name, n, line)
		}
		if listed[fields[0]] != "" {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, n, fields[0])
		}
		listed[fields[0]] = fields[1]
	}
	return listed, sc.Err()
}

func validReason(r string) bool {
	if r == "oracle" || r == "harness" {
		return true
	}
	num, ok := strings.CutPrefix(r, "item-")
	return ok && num != "" && strings.Trim(num, "0123456789abcdefghijklmnopqrstuvwxyz") == "" &&
		num[0] >= '1' && num[0] <= '9'
}

func TestReachableSurfaceFindsTestOnlyCode(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/toy\n\ngo 1.22\n",
		"cmd/toy/main.go": `package main

import (
	"io"

	"example.com/toy/lib"
)

func main() { io.Copy(io.Discard, &lib.Reader{}); lib.Used() }
`,
		"lib/lib.go": `package lib

import "io"

func Used() {}

func OnlyTested() int { return 1 }

type Reader struct{ done bool }

func (r *Reader) Read(p []byte) (int, error) {
	if r.done || len(p) == 0 {
		return 0, io.EOF
	}
	r.done = true
	return 1, nil
}

func (r *Reader) ReadByte() (byte, error) { return 0, io.EOF }
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 {
		t.Fatal()
	}
}
`,
	}
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unreachedSurface(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.OnlyTested"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreached = %q, want %q", got, want)
	}
}

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	dir   string // module-relative, "." for the root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// unreachedSurface type-checks every non-test file of the module rooted at
// root and returns the package-level funcs, methods, types, vars and consts
// that no program reaches, as "dir.Name" or "dir.Type.Method", sorted.
//
// The walk starts at each program's main and at the init funcs and var
// initialisers of every package a program imports, and follows every
// identifier a reached declaration uses. A method is also reached when its
// receiver type is, and its name and signature match a method of an
// interface type declared in the module or anywhere in its import closure:
// the method may be called through that interface, even by the standard
// library (io.ByteReader on a reader passed as io.Reader).
func unreachedSurface(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(p)
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}

	fset := token.NewFileSet()
	parsed := map[string]*reachPkg{} // by import path
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		rp := &reachPkg{dir: rel}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(p, n); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(p, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rp.files = append(rp.files, f)
		}
		if len(rp.files) > 0 {
			parsed[path.Join(modPath, rel)] = rp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	imp := &reachImporter{
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		fset:   fset,
		parsed: parsed,
	}
	for ip := range parsed {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}

	// Interface methods by name, from every package in the closure plus
	// the interface literals the module writes.
	ifaces := map[string][]*types.Signature{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ifaces[m.Name()] = append(ifaces[m.Name()], m.Type().(*types.Signature))
		}
	}
	// The errors package asserts these unnamed interfaces inside function
	// bodies, which the source importer does not type-check.
	errT, boolT := types.Universe.Lookup("error").Type(), types.Typ[types.Bool]
	for _, m := range []struct {
		name    string
		in, out []types.Type
	}{
		{"Unwrap", nil, []types.Type{errT}},
		{"Unwrap", nil, []types.Type{types.NewSlice(errT)}},
		{"Is", []types.Type{errT}, []types.Type{boolT}},
		{"As", []types.Type{types.Universe.Lookup("any").Type()}, []types.Type{boolT}},
	} {
		sig := types.NewSignatureType(nil, nil, nil, reachTuple(m.in), reachTuple(m.out), false)
		ifaces[m.name] = append(ifaces[m.name], sig)
	}
	seenPkg := map[*types.Package]bool{}
	var scanPkg func(p *types.Package)
	scanPkg = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			scanPkg(q)
		}
	}
	for _, rp := range parsed {
		scanPkg(rp.pkg)
		for _, tv := range rp.info.Types {
			if tv.IsType() {
				if _, named := tv.Type.(*types.Named); !named {
					addIface(tv.Type)
				}
			}
		}
	}

	// The declaration graph: each package-level object and method of the
	// module points at the module objects its declaration uses.
	g := &reachGraph{deps: map[types.Object][]types.Object{}, decl: map[types.Object]*reachPkg{}, modPkgs: parsed}
	var roots []types.Object
	inProgram := map[*types.Package]bool{}
	var markProgram func(p *types.Package)
	markProgram = func(p *types.Package) {
		if inProgram[p] || parsed[p.Path()] == nil {
			return
		}
		inProgram[p] = true
		for _, q := range p.Imports() {
			markProgram(q)
		}
	}
	for _, rp := range parsed {
		if rp.pkg.Name() == "main" && reachProgram(rp.dir) {
			markProgram(rp.pkg)
		}
	}
	for _, rp := range parsed {
		for _, f := range rp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := rp.info.Defs[d.Name]
					uses := g.uses(rp, d)
					switch {
					case d.Recv == nil && d.Name.Name == "init":
						if inProgram[rp.pkg] {
							roots = append(roots, uses...)
						}
						continue
					case d.Recv == nil && d.Name.Name == "main" && rp.pkg.Name() == "main":
						if reachProgram(rp.dir) {
							roots = append(roots, uses...)
						}
						continue
					}
					g.add(rp, obj, uses)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							g.add(rp, rp.info.Defs[s.Name], g.uses(rp, s))
						case *ast.ValueSpec:
							uses := g.uses(rp, s)
							// Initialisers run, and a blank var asserts.
							if d.Tok == token.VAR && inProgram[rp.pkg] && (len(s.Values) > 0 || s.Names[0].Name == "_") {
								roots = append(roots, uses...)
							}
							for _, n := range s.Names {
								if n.Name == "_" {
									continue
								}
								obj := rp.info.Defs[n]
								own := uses
								if tn := namedOf(obj.Type()); tn != nil && g.inModule(tn) {
									own = append(own[:len(own):len(own)], tn)
								}
								g.add(rp, obj, own)
							}
						}
					}
				}
			}
		}
	}

	// Walk to a fixed point: a reached type exposes its interface-shaped
	// methods, which may reach further types.
	reached := map[types.Object]bool{}
	work := append([]types.Object(nil), roots...)
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[o] {
			continue
		}
		reached[o] = true
		work = append(work, g.deps[o]...)
		if tn, ok := o.(*types.TypeName); ok {
			if nt, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < nt.NumMethods(); i++ {
					m := nt.Method(i)
					for _, sig := range ifaces[m.Name()] {
						if types.Identical(m.Type(), sig) {
							work = append(work, m)
							break
						}
					}
				}
			}
		}
	}

	var out []string
	for o, rp := range g.decl {
		if reached[o] {
			continue
		}
		name := o.Name()
		if fn, ok := o.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if tn := namedOf(recv.Type()); tn != nil {
					name = tn.Name() + "." + name
				}
			}
		}
		out = append(out, rp.dir+"."+name)
	}
	sort.Strings(out)
	return out, nil
}

func reachTuple(ts []types.Type) *types.Tuple {
	vars := make([]*types.Var, len(ts))
	for i, t := range ts {
		vars[i] = types.NewParam(token.NoPos, nil, "", t)
	}
	return types.NewTuple(vars...)
}

// namedOf returns the type name behind t, *t or t[...], or nil.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

type reachGraph struct {
	deps    map[types.Object][]types.Object
	decl    map[types.Object]*reachPkg
	modPkgs map[string]*reachPkg
}

func (g *reachGraph) add(rp *reachPkg, obj types.Object, uses []types.Object) {
	if obj == nil {
		return
	}
	g.decl[obj] = rp
	g.deps[obj] = uses
}

func (g *reachGraph) inModule(o types.Object) bool {
	return o.Pkg() != nil && g.modPkgs[o.Pkg().Path()] != nil
}

// uses lists the module-level objects and methods node refers to.
func (g *reachGraph) uses(rp *reachPkg, node ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := rp.info.Uses[id]
		if o == nil || o.Pkg() == nil {
			return true
		}
		switch o := o.(type) {
		case *types.Func:
			out = append(out, o.Origin())
		case *types.Var:
			if !o.IsField() && o.Parent() == o.Pkg().Scope() {
				out = append(out, o.Origin())
			}
		case *types.TypeName:
			if o.Parent() == o.Pkg().Scope() {
				out = append(out, o)
			}
		case *types.Const:
			if o.Parent() == o.Pkg().Scope() {
				out = append(out, o)
			}
		}
		return true
	})
	return out
}

// reachImporter type-checks module packages from the parsed files, keeping
// their use information, and hands everything else to the source importer.
type reachImporter struct {
	std    types.ImporterFrom
	fset   *token.FileSet
	parsed map[string]*reachPkg
}

func (r *reachImporter) Import(p string) (*types.Package, error) {
	return r.ImportFrom(p, "", 0)
}

func (r *reachImporter) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	rp := r.parsed[p]
	if rp == nil {
		return r.std.ImportFrom(p, dir, mode)
	}
	if rp.pkg != nil {
		return rp.pkg, nil
	}
	rp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: r}
	pkg, err := conf.Check(p, r.fset, rp.files, rp.info)
	if err != nil {
		return nil, err
	}
	rp.pkg = pkg
	return pkg, nil
}
