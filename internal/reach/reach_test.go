// Package reach holds one test: every function the module declares outside
// its tests must be reachable from a production root, or be listed in
// allowed with the reason it is kept. Code with no production caller is
// deleted, not maintained, and this test is what keeps it that way.
//
// The roots are every main and init, package-level variable initialisers,
// the exported surface of molq and molq/client (followed through aliases,
// fields, signatures and method sets), every function of the servebench
// module, methods that complete a standard-library interface the library
// calls itself (String, Error, ServeHTTP, sort's Len/Less/Swap, ...), and
// any method whose name reachable code calls through an interface.
// Reachability follows every reference to a function, called or taken as a
// value, so it over-approximates calls and never reports a function that
// can run.
package reach

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed lists the functions production cannot reach but that stay, each
// with the reason. A test that merely calls a function is not a reason: it
// must be a reference other tests check against, a paper property, or a
// documented contract. An entry that becomes reachable or disappears fails
// the test too, so the list cannot rot.
var allowed = map[string]string{
	"internal/core.Identity":            "the identity MOVD of Property 12, pinned by TestIdentityLaw",
	"internal/core.WGD":                 "Eq 2's weighted group distance, the reference of the Property 5 test and the MWGD oracles",
	"internal/core.Additive":            "the additively-based ς of Fig 5, the weight function of core's and query's MWGD oracles",
	"internal/core.MOVD.Validate":       "the structural invariant checker the ⊕ and splice tests run on every result",
	"internal/core.OVR.Clone":           "OverlapStream's documented rule for callers that keep an emitted OVR",
	"internal/geom.ConvexHull":          "the hull oracle of the Voronoi and clip tests",
	"internal/geom.sortPoints":          "ConvexHull's sort step",
	"internal/geom.NewPolygon":          "builds the polygons other packages' tests feed to the clip, store and render code",
	"internal/voronoi.Dynamic.Slots":    "TestPaperScalePin and the splice tests enumerate a dynamic diagram's slots",
	"internal/voronoi.Dynamic.Diagram":  "TestPaperScalePin compares a dynamic diagram with a rebuild through it",
	"internal/weighted.NearestWeighted": "the brute-force multiplicative oracle of mwvd's conservativeness tests",
	"internal/weighted.NearestAdditive": "the brute-force additive oracle of mwvd's tests",
	"internal/mwvd.Diagram.MBRs":        "the per-site boxes mwvd's conservativeness tests check against the oracles",
	"internal/mwvd.Diagram.Locate":      "the point query mwvd's (1+ε) tests check against the oracles",
	"internal/mwvd.childAt":             "Locate's quadrant step",
	"internal/mwvd.Diagram.Stats":       "build counters mwvd's refinement and cutoff tests assert on",
	"internal/network.Graph.Dijkstra":   "the single-source oracle of the multi-source and MOLQ tests",
	"internal/network.Graph.Neighbors":  "the adjacency the Dijkstra and Floyd-Warshall oracles walk",
	"internal/obs.Span.Find":            "looks up spans by name in the trace-tree tests of obs and query",
	"internal/stats.Table.Rows":         "the row count the experiment table tests assert on",
	"internal/httpapi.WithMetrics":      "lets a test substitute its own registry for obs.Default",
	"internal/dataset.WriteRecords":     "the writer half of FuzzReadRecords' round trip",
	"internal/store.WriteMOVD":          "the MOVD wire format TestWireFormatPinned and FuzzReadMOVD pin; spill files use it",
	"internal/store.ReadMOVD":           "decodes a spill file or MOVD stream whole; FuzzReadMOVD and TestWireFormatPinned pin it",
}

// stdIfaces are the method sets of the standard-library interfaces whose
// methods the library calls itself (fmt, errors, sort, container/heap,
// net/http, io, encoding/json, encoding, flag, log/slog). A method with one
// of these names may run without any call in the module, when its type has
// the interface's whole method set.
var stdIfaces = [][]string{
	{"String"}, {"GoString"}, {"Format"}, {"Error"}, {"Unwrap"}, {"Is"}, {"As"},
	{"Len", "Less", "Swap"}, {"Len", "Less", "Swap", "Push", "Pop"},
	{"ServeHTTP"}, {"Flush"},
	{"Read"}, {"Write"}, {"Close"}, {"WriteString"}, {"ReadByte"}, {"WriteByte"},
	{"WriteTo"}, {"ReadFrom"},
	{"MarshalJSON"}, {"UnmarshalJSON"}, {"MarshalText"}, {"UnmarshalText"},
	{"String", "Set"}, {"LogValue"},
}

// implementsStd reports whether m's receiver type has the whole method set
// of a standard interface that contains m's name.
func implementsStd(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(recv))
	for _, iface := range stdIfaces {
		named, has := false, true
		for _, name := range iface {
			named = named || name == m.Name()
			has = has && ms.Lookup(m.Pkg(), name) != nil
		}
		if named && has {
			return true
		}
	}
	return false
}

const module = "molq"

type pkg struct {
	path  string // import path
	dir   string
	files []string
	bench bool // in the servebench module: every function is a root

	syntax []*ast.File
	types  *types.Package
	info   *types.Info
}

// loader type-checks the module's packages itself, so that servebench and
// the root module share one types.Package per import path, and leaves the
// standard library to the source importer.
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*pkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return l.check(p)
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) check(p *pkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	for _, name := range p.files {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.syntax = append(p.syntax, f)
	}
	p.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(p.path, l.fset, p.syntax, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// list runs go list in dir and returns the packages with non-test files.
func list(t *testing.T, dir string, bench bool) []*pkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []*pkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp struct {
			ImportPath string
			Dir        string
			GoFiles    []string
		}
		if err := dec.Decode(&lp); err != nil {
			t.Fatal(err)
		}
		if len(lp.GoFiles) > 0 {
			pkgs = append(pkgs, &pkg{path: lp.ImportPath, dir: lp.Dir, files: lp.GoFiles, bench: bench})
		}
	}
	return pkgs
}

// key names a function as "package.Func" or "package.Type.Method", with the
// module prefix dropped from the package path.
func key(p *pkg, d *ast.FuncDecl) string {
	path := strings.TrimPrefix(strings.TrimPrefix(p.path, module), "/")
	if path == "" {
		path = module
	}
	if d.Recv == nil {
		return path + "." + d.Name.Name
	}
	rt := d.Recv.List[0].Type
	if s, ok := rt.(*ast.StarExpr); ok {
		rt = s.X
	}
	switch x := rt.(type) {
	case *ast.IndexExpr:
		rt = x.X
	case *ast.IndexListExpr:
		rt = x.X
	}
	return path + "." + rt.(*ast.Ident).Name + "." + d.Name.Name
}

type decl struct {
	fn  *ast.FuncDecl
	pkg *pkg
}

// graph walks references from the roots to every reachable function.
type graph struct {
	decls   map[*types.Func]decl
	byName  map[string][]*types.Func // methods, by name
	reached map[*types.Func]bool
	dynamic map[string]bool // method names called through an interface
	seen    map[types.Type]bool
	work    []*types.Func
}

func (g *graph) mark(f *types.Func) {
	f = f.Origin()
	if _, ok := g.decls[f]; !ok || g.reached[f] {
		return
	}
	g.reached[f] = true
	g.work = append(g.work, f)
}

// callDynamic marks every method that a call through an interface method
// of this name may reach.
func (g *graph) callDynamic(name string) {
	if g.dynamic[name] {
		return
	}
	g.dynamic[name] = true
	for _, m := range g.byName[name] {
		g.mark(m)
	}
}

// scan marks every function n refers to.
func (g *graph) scan(info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		f, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			g.callDynamic(f.Name())
		} else {
			g.mark(f)
		}
		return true
	})
}

// surface marks every exported method a user of the public packages can
// reach through a value of type t.
func (g *graph) surface(t types.Type) {
	t = types.Unalias(t)
	if g.seen[t] {
		return
	}
	g.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		for _, mt := range []types.Type{t, types.NewPointer(t)} {
			ms := types.NewMethodSet(mt)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				if !m.Exported() {
					continue
				}
				if types.IsInterface(t) {
					g.callDynamic(m.Name())
				} else {
					g.mark(m)
				}
				g.surface(m.Type())
			}
		}
		g.surface(t.Underlying())
	case *types.Pointer:
		g.surface(t.Elem())
	case *types.Slice:
		g.surface(t.Elem())
	case *types.Array:
		g.surface(t.Elem())
	case *types.Chan:
		g.surface(t.Elem())
	case *types.Map:
		g.surface(t.Key())
		g.surface(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				g.surface(f.Type())
			}
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				g.surface(tup.At(i).Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			g.callDynamic(t.Method(i).Name())
			g.surface(t.Method(i).Type())
		}
	}
}

func TestEveryFunctionReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("needs the go command")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// The source importer would otherwise run cgo over net and os/user;
	// type-checking needs only their pure-Go files.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}
	all := append(list(t, root, false), list(t, filepath.Join(root, "servebench"), true)...)
	for _, p := range all {
		l.pkgs[p.path] = p
	}
	for _, p := range all {
		if _, err := l.check(p); err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
	}

	g := &graph{
		decls:   map[*types.Func]decl{},
		byName:  map[string][]*types.Func{},
		reached: map[*types.Func]bool{},
		dynamic: map[string]bool{},
		seen:    map[types.Type]bool{},
	}
	var roots []*types.Func
	for _, p := range all {
		for _, f := range p.syntax {
			for _, d := range f.Decls {
				d, ok := d.(*ast.FuncDecl)
				if !ok || d.Name.Name == "_" || (d.Recv == nil && d.Name.Name == "init") {
					continue
				}
				obj := p.info.Defs[d.Name].(*types.Func)
				g.decls[obj] = decl{d, p}
				if d.Recv != nil {
					g.byName[obj.Name()] = append(g.byName[obj.Name()], obj)
				}
				switch {
				case p.bench,
					d.Recv == nil && d.Name.Name == "main" && p.types.Name() == "main",
					d.Recv != nil && implementsStd(obj):
					roots = append(roots, obj)
				}
			}
		}
	}
	for _, f := range roots {
		g.mark(f)
	}
	for _, path := range []string{module, module + "/client"} {
		p := l.pkgs[path]
		if p == nil {
			t.Fatalf("package %s not listed", path)
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				if f, ok := obj.(*types.Func); ok {
					g.mark(f)
				}
				g.surface(obj.Type())
			}
		}
	}
	for _, p := range all {
		for _, f := range p.syntax {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						g.scan(p.info, d)
					}
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						g.scan(p.info, d)
					}
				}
			}
		}
	}
	for len(g.work) > 0 {
		f := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		if d := g.decls[f]; d.fn.Body != nil {
			g.scan(d.pkg.info, d.fn.Body)
		}
	}

	var errs []string
	state := map[string]bool{} // key → reached, for functions outside servebench
	for f, d := range g.decls {
		if d.pkg.bench {
			continue
		}
		k := key(d.pkg, d.fn)
		state[k] = g.reached[f]
		if _, ok := allowed[k]; !ok && !g.reached[f] {
			pos := fset.Position(d.fn.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			errs = append(errs, fmt.Sprintf("%s (%s:%d) is unreachable from every production root", k, rel, pos.Line))
		}
	}
	for k := range allowed {
		if reached, ok := state[k]; !ok {
			errs = append(errs, "allowlisted "+k+" no longer exists")
		} else if reached {
			errs = append(errs, "allowlisted "+k+" is reachable now")
		}
	}
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}
