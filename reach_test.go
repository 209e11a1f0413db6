package multikernel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the non-test package-level declarations that no tool,
// example or catalogue entry reaches but that stay anyway, each with the
// reason. Keys are import path, receiver type (for a method) and name. What
// an entry refers to stays with it.
var reachAllow = map[string]string{
	// Paper mechanisms that no experiment runs yet.
	"multikernel/internal/monitor.Monitor.SendCap":  "§4.8 capability transfer between monitors; it is the one caller of caps.Capability.PackWords",
	"multikernel/internal/threads.Thread.Join":      "§4.8 cross-core thread join by dispatcher message",
	"multikernel/internal/threads.Team.JoinAll":     "§4.8 joining every thread of a domain",
	"multikernel/internal/threads.Thread.Migrate":   "§4.8 thread migration by dispatcher message",
	"multikernel/internal/core.Domain.Protect":      "ROADMAP item 8: check mode drives Figure 7's mprotect through it and vm.Space.SetProt",
	"multikernel/internal/core.System.GlobalRevoke": "ROADMAP item 8: check mode drives the two-phase revoke through it",

	// Inspectors that other packages' tests call.
	"multikernel/internal/caps.CSpace.Len":                 "core and vm tests count a core's capabilities",
	"multikernel/internal/interconnect.Fabric.LinkDegrade": "fault tests read a link's impairment",
	"multikernel/internal/skb.KB.Query":                    "obs tests read the SKB's facts",
	"multikernel/internal/skb.KB.Count":                    "core tests count the SKB's facts",
	"multikernel/internal/stats.Figure.Get":                "expt tests and the root benchmarks read a figure's series",
	"multikernel/internal/netstack.Stack.Dial":             "the TCP client that the apps tests drive the web server with",
	"multikernel/internal/netstack.TCPConn.Recv":           "the TCP client that the apps tests drive the web server with",
	"multikernel/internal/sim.Engine.SkippedSteps":         "host-side count of skipped idle steps; the expt test that keeps the monitor skip firing reads it",

	// Positions of iota sequences whose neighbours are in use.
	"multikernel/internal/netstack.TCPRst": "the RST bit between SYN and PSH in the TCP flags byte",
	"multikernel/internal/apps.KVMutNone":  "the zero KVMutation: a ClusterConfig without Mut runs the correct protocol",
	"multikernel/internal/apps.kvOpPoint":  "opcode 0, a point SELECT: KVClient.Select sends a request whose third word is left zero",
}

// readAllow lists the non-test struct fields that no non-test expression
// reads but that stay anyway, each with the reason. Keys are import path,
// type and field; a field of a local or nested struct type names each
// enclosing declaration and field instead of the type.
var readAllow = map[string]string{
	"multikernel/bench/mkperf.workload.why":       "BENCHMARK.json's reason for the workload; bench/ changes only with the benchmark",
	"multikernel/internal/check.Result.TraceHash": "TestReplayReproducesGenerativeRun and TestEmptyReplayIsByteIdentical check replays event for event through it",
	"multikernel/internal/expt.cohRun.events":     "BenchmarkDirectoryPinned reports it, and ci/traceguard pins it",
}

// reachModules are the directories of the repository's Go modules. The
// benchmark module counts as a root: what mkperf runs is reached.
var reachModules = []string{".", "bench"}

// Code that no tool, example or catalogue entry runs backs no figure or
// table of the reproduction, and state that nothing reads changes no
// output. The roots are main, init and blank package variables of every
// non-test package in both modules. Every non-test function, method, type,
// variable or constant that the walk from those roots does not reach must
// be deleted, moved into a _test.go file or given a reason in reachAllow;
// every non-test struct field that no non-test expression reads must be
// deleted with its writes or given a reason in readAllow.
func TestNoTestOnlyCode(t *testing.T) {
	g := newReachGraph()
	for _, dir := range reachModules {
		g.loadModule(t, dir)
	}
	live := g.walk(g.roots, g.ifaces, false)
	// What an allow-listed declaration calls stays with it.
	kept := g.walk(append(slices.Sorted(maps.Keys(reachAllow)), g.roots...), g.ifaces, false)
	tested := g.walk(append(g.roots, g.testRoots...), g.testIfaces, true)

	var dead []string
	for key := range g.decls {
		if !kept[key] {
			dead = append(dead, key)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return posLess(g.decls[dead[i]], g.decls[dead[j]]) })
	for _, key := range dead {
		how := "nothing reaches it"
		if tested[key] {
			how = "only tests reach it"
		}
		pos := g.decls[key]
		t.Errorf("%s:%d: %s: %s; delete it, move it into a _test.go file or give reachAllow a reason",
			pos.Filename, pos.Line, key, how)
	}
	for key, reason := range reachAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("reachAllow[%q] gives no reason", key)
		}
		if _, ok := g.decls[key]; !ok {
			t.Errorf("reachAllow[%q] names no non-test package-level declaration", key)
		} else if live[key] {
			t.Errorf("reachAllow[%q]: non-test code reaches it; drop the entry", key)
		}
	}

	byName := map[string][]string{}
	var unread []string
	for at, f := range g.fields {
		byName[f.name] = append(byName[f.name], at)
		if !g.reads[false][at] && readAllow[f.name] == "" {
			unread = append(unread, at)
		}
	}
	sort.Slice(unread, func(i, j int) bool { return posLess(g.fields[unread[i]].pos, g.fields[unread[j]].pos) })
	for _, at := range unread {
		how := "nothing reads it"
		if g.reads[true][at] {
			how = "only tests read it"
		}
		f := g.fields[at]
		t.Errorf("%s:%d: field %s: %s; delete it with its writes or give readAllow a reason",
			f.pos.Filename, f.pos.Line, f.name, how)
	}
	for name, reason := range readAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("readAllow[%q] gives no reason", name)
		}
		if len(byName[name]) == 0 {
			t.Errorf("readAllow[%q] names no non-test struct field", name)
		}
		for _, at := range byName[name] {
			if g.reads[false][at] {
				t.Errorf("readAllow[%q]: non-test code reads it; drop the entry", name)
			}
		}
	}
}

func posLess(a, b token.Position) bool {
	return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
}

// listedPackage is the part of go list's JSON this test reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ Main bool }
}

// reachGraph links every package-level declaration of the modules, named
// "importpath.Name" or "importpath.Type.Method", to the declarations its
// syntax refers to.
type reachGraph struct {
	fset  *token.FileSet
	edges map[string][]string
	// methods maps a named type to its method set, promoted methods
	// included: method name → the declaring method's key.
	methods map[string]map[string]string
	// ifaces holds the method names of every interface type that non-test
	// code mentions, testIfaces those that any code mentions. A reached
	// type reaches its methods of those names: a call through an interface
	// names no concrete method.
	ifaces, testIfaces map[string]bool
	roots, testRoots   []string
	// inTest marks declarations made in _test.go files.
	inTest map[string]bool
	// decls maps every non-test package-level declaration to its position.
	decls map[string]token.Position
	// fields holds every non-test struct field, keyed by at: a field
	// object from export data is a different object from the one its
	// declaring package's source defines.
	fields map[string]fieldDecl
	// reads[test] holds the fields, keyed by at, that expressions of
	// non-test files (false) or of _test.go files (true) read.
	reads map[bool]map[string]bool
}

// fieldDecl is a non-test struct field: its name as readAllow keys it and
// its position.
type fieldDecl struct {
	name string
	pos  token.Position
}

func newReachGraph() *reachGraph {
	// fmt and errors find these methods by type assertion on values the
	// caller passes as any, so no interface type in the caller names them.
	implicit := []string{"Error", "String", "GoString", "Format", "Unwrap", "Is", "As"}
	g := &reachGraph{
		fset:       token.NewFileSet(),
		edges:      map[string][]string{},
		methods:    map[string]map[string]string{},
		ifaces:     map[string]bool{},
		testIfaces: map[string]bool{},
		inTest:     map[string]bool{},
		decls:      map[string]token.Position{},
		fields:     map[string]fieldDecl{},
		reads:      map[bool]map[string]bool{false: {}, true: {}},
	}
	for _, name := range implicit {
		g.ifaces[name], g.testIfaces[name] = true, true
	}
	return g
}

// loadModule type-checks every package of the module in dir from source,
// each test variant once, importing dependencies from the export data of
// one go list -deps -test -export.
func (g *reachGraph) loadModule(t *testing.T, dir string) {
	cmd := exec.Command("go", "list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Export,ForTest,GoFiles,ImportMap,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	byID := map[string]*listedPackage{}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		byID[p.ImportPath] = p
		pkgs = append(pkgs, p)
	}
	for _, p := range pkgs {
		if p.Module == nil || !p.Module.Main || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		path, variant, _ := strings.Cut(p.ImportPath, " ")
		switch {
		case variant == "" && byID[path+" ["+path+".test]"] != nil:
			continue // its test variant holds the same files and more
		case variant != "" && path != p.ForTest && path != p.ForTest+"_test":
			continue // a dependency recompiled for another package's test
		}
		g.check(t, path, p, byID)
	}
}

// check type-checks one package variant and adds its declarations.
func (g *reachGraph) check(t *testing.T, path string, p *listedPackage, byID map[string]*listedPackage) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		if id, ok := p.ImportMap[path]; ok {
			path = id
		}
		if q := byID[path]; q != nil && q.Export != "" {
			return os.Open(q.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, g.fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", p.ImportPath, err)
	}
	isTest := func(pos token.Pos) bool { return strings.HasSuffix(g.fset.File(pos).Name(), "_test.go") }

	seen := map[bool]map[types.Type]bool{false: {}, true: {}} // by test
	collect := func(typ types.Type, pos token.Pos) {
		test := isTest(pos)
		g.collectIfaces(typ, test, seen[test])
	}
	for expr, tv := range info.Types {
		collect(tv.Type, expr.Pos())
		// A map compares its keys whole.
		if m, ok := tv.Type.(*types.Map); ok {
			g.readWhole(m.Key(), isTest(expr.Pos()))
		}
	}
	for _, m := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
		for id, obj := range m {
			if obj != nil {
				collect(obj.Type(), id.Pos())
			}
		}
	}

	for _, f := range files {
		test := isTest(f.Pos())
		g.addReads(f, info, test)
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				key := reachKey(info.Defs[d.Name])
				root := test || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main")
				if d.Name.Name == "init" && d.Recv == nil {
					key = fmt.Sprintf("%s.init@%s", path, g.fset.Position(d.Pos()))
				} else if !test {
					start := d.Pos()
					if d.Doc != nil {
						start = d.Doc.Pos()
					}
					g.decls[key] = g.fset.Position(start)
				}
				g.add(key, d, info, test, root)
				if !test && d.Body != nil {
					g.addFields(key, d.Body, info)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						key := reachKey(info.Defs[s.Name])
						g.add(key, s, info, test, test)
						if named, ok := info.Defs[s.Name].Type().(*types.Named); ok && !types.IsInterface(named) {
							g.addMethods(key, named)
						}
						if !test {
							g.decls[key] = g.fset.Position(s.Pos())
							g.addFields(key, s.Type, info)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							key := reachKey(info.Defs[name])
							if name.Name == "_" {
								key = fmt.Sprintf("%s._@%s", path, g.fset.Position(name.Pos()))
							} else if !test {
								g.decls[key] = g.fset.Position(name.Pos())
							}
							g.add(key, s, info, test, test || name.Name == "_")
						}
						if !test {
							g.addFields(reachKey(info.Defs[s.Names[0]]), s, info)
						}
					}
				}
			}
		}
	}
}

// addFields records the fields of every struct type that node's syntax
// spells out, named after prefix, the declaration node belongs to.
func (g *reachGraph) addFields(prefix string, node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec: // a type local to a function
			g.addFields(prefix+"."+n.Name.Name, n.Type, info)
			return false
		case *ast.StructType:
			st := info.TypeOf(n).(*types.Struct)
			i := 0
			for _, field := range n.Fields.List {
				for range max(1, len(field.Names)) {
					v := st.Field(i)
					name := prefix + "." + v.Name()
					g.fields[g.at(v)] = fieldDecl{name, g.fset.Position(v.Pos())}
					// encoding/json reads every field it has a key for.
					if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
						g.reads[false][g.at(v)] = true
					}
					g.addFields(name, field.Type, info)
					i++
				}
			}
			return false
		}
		return true
	})
}

// addReads records the struct fields that file's expressions read. A
// field is written, not read, on the left of an assignment or increment,
// and so is every field of a selector or index chain that is written into
// without following a pointer. A struct compared whole, or used as a map
// key, reads every field; a promoted selection reads the embedded fields on
// its path.
func (g *reachGraph) addReads(file *ast.File, info *types.Info, test bool) {
	written := map[*ast.SelectorExpr]bool{}
	write := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				written[x] = true
				if sel.Indirect() {
					return
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				write(n.Key)
				write(n.Value)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				g.readWhole(info.TypeOf(n.X), test)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil {
				break
			}
			typ, path := sel.Recv(), sel.Index()
			for k, i := range path {
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok || k == len(path)-1 && (sel.Kind() != types.FieldVal || written[n]) {
					break
				}
				g.reads[test][g.at(st.Field(i))] = true
				typ = st.Field(i).Type()
			}
		}
		return true
	})
}

// readWhole records that every field of typ's values is read, as a
// comparison or a map lookup reads them.
func (g *reachGraph) readWhole(typ types.Type, test bool) {
	switch t := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			g.reads[test][g.at(t.Field(i))] = true
			g.readWhole(t.Field(i).Type(), test)
		}
	case *types.Array:
		g.readWhole(t.Elem(), test)
	}
}

// at keys a field by its name and the line that declares it. Export data
// keeps a field's line but not its column.
func (g *reachGraph) at(v *types.Var) string {
	pos := g.fset.Position(v.Origin().Pos())
	return fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, v.Name())
}

// add records that the declaration key refers to what node's syntax names.
func (g *reachGraph) add(key string, node ast.Node, info *types.Info, test, root bool) {
	if key == "" {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := reachKey(info.Uses[id]); k != "" {
				g.edges[key] = append(g.edges[key], k)
			}
		}
		return true
	})
	if test {
		g.inTest[key] = true
	}
	if root && test {
		g.testRoots = append(g.testRoots, key)
	} else if root {
		g.roots = append(g.roots, key)
	}
}

// addMethods records the method sets of named and of a pointer to it.
func (g *reachGraph) addMethods(key string, named *types.Named) {
	ms := g.methods[key]
	if ms == nil {
		ms = map[string]string{}
		g.methods[key] = ms
	}
	for _, typ := range []types.Type{named, types.NewPointer(named)} {
		set := types.NewMethodSet(typ)
		for i := 0; i < set.Len(); i++ {
			if k := reachKey(set.At(i).Obj()); k != "" {
				ms[set.At(i).Obj().Name()] = k
			}
		}
	}
}

// collectIfaces adds the method names of every interface type inside typ.
// It does not look inside a named type that is not an interface.
func (g *reachGraph) collectIfaces(typ types.Type, test bool, seen map[types.Type]bool) {
	if typ == nil || seen[typ] {
		return
	}
	seen[typ] = true
	switch t := typ.(type) {
	case *types.Alias:
		g.collectIfaces(types.Unalias(t), test, seen)
	case *types.Named:
		if types.IsInterface(t) {
			g.collectIfaces(t.Underlying(), test, seen)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			g.collectIfaces(t.TypeArgs().At(i), test, seen)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			g.testIfaces[t.Method(i).Name()] = true
			if !test {
				g.ifaces[t.Method(i).Name()] = true
			}
			g.collectIfaces(t.Method(i).Type(), test, seen)
		}
	case *types.TypeParam:
		g.collectIfaces(t.Constraint(), test, seen)
	case *types.Pointer:
		g.collectIfaces(t.Elem(), test, seen)
	case *types.Slice:
		g.collectIfaces(t.Elem(), test, seen)
	case *types.Array:
		g.collectIfaces(t.Elem(), test, seen)
	case *types.Chan:
		g.collectIfaces(t.Elem(), test, seen)
	case *types.Map:
		g.collectIfaces(t.Key(), test, seen)
		g.collectIfaces(t.Elem(), test, seen)
	case *types.Signature:
		g.collectIfaces(t.Params(), test, seen)
		g.collectIfaces(t.Results(), test, seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			g.collectIfaces(t.At(i).Type(), test, seen)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			g.collectIfaces(t.Field(i).Type(), test, seen)
		}
	}
}

// walk returns every declaration reached from roots. A reached named type
// reaches its methods whose names an interface in ifaces has. Without
// withTests, the walk does not enter declarations of _test.go files.
func (g *reachGraph) walk(roots []string, ifaces map[string]bool, withTests bool) map[string]bool {
	reached := map[string]bool{}
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		key := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[key] || g.inTest[key] && !withTests {
			continue
		}
		reached[key] = true
		queue = append(queue, g.edges[key]...)
		for name, m := range g.methods[key] {
			if ifaces[name] {
				queue = append(queue, m)
			}
		}
	}
	return reached
}

// reachKey names a package-level object of the modules, or returns "" for
// anything else: locals, fields, interface methods and the standard
// library.
func reachKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "multikernel") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return fn.Pkg().Path() + "." + fn.Name()
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		named, ok := typ.(*types.Named)
		if !ok || types.IsInterface(named) {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
