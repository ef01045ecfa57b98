package m2m

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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testHooks names the exported internal declarations that no production
// path reaches but that stay on purpose, each with its reason. A name is
// "pkg.Name" or "pkg.Type.Method", pkg relative to m2m/internal.
var testHooks = map[string]string{
	"tablefmt.Table.Column": "figure-shape tests read a table column by header",
}

// TestNoTestOnlyCode type-checks every non-test file of the module and of
// the benchmark module, walks references from every main package and the
// root package's exported API, and fails on each exported declaration in
// internal/ that this walk does not reach: such code is kept alive only by
// tests (or by nothing). Calls through interfaces are resolved by method
// name, so the walk can over-approximate but never misses a caller.
func TestNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	dead, err := unreachedDecls(".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		if !d.exported {
			continue
		}
		if _, ok := testHooks[d.name]; ok {
			continue
		}
		t.Errorf("%s:%d: %s is reached by no production path; delete it, move it into a _test.go file, or list it in testHooks with a reason", d.file, d.line, d.name)
	}
	if testing.Verbose() {
		total := 0
		for _, d := range dead {
			t.Logf("%s:%d\t%s\t%d lines", d.file, d.line, d.name, d.lines)
			total += d.lines
		}
		t.Logf("%d unreached declarations, %d lines", len(dead), total)
	}
}

type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// goList returns `go list -deps -export` for the patterns, run in dir.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Name,Dir,GoFiles,Export,Module"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

type unreached struct {
	file     string
	line     int
	name     string // pkg.Name or pkg.Type.Method, pkg relative to internal/
	lines    int
	exported bool
}

// declInfo is one package-level declaration: the objects it defines, the
// objects its syntax refers to, and its extent.
type declInfo struct {
	refs  []types.Object
	node  ast.Node
	file  *token.File
	names []types.Object
}

// unreachedDecls lists the internal/ declarations of the module rooted at
// root that no production path reaches. extra names further main modules
// (relative to root) that import the module through a replace directive.
func unreachedDecls(root string, extra ...string) ([]unreached, error) {
	pkgs, err := goList(root, "./...")
	if err != nil {
		return nil, err
	}
	for _, e := range extra {
		more, err := goList(filepath.Join(root, e), ".")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, more...)
	}
	// Standard-library packages have no module, so the first package
	// with one belongs to the module at root.
	var modPath string
	for _, p := range pkgs {
		if p.Module != nil {
			modPath = p.Module.Path
			break
		}
	}

	exports := map[string]string{}
	var order []*listedPackage
	seen := map[string]bool{}
	own := func(p *listedPackage) bool {
		return p.Module != nil && (p.Module.Path == modPath || strings.HasPrefix(p.Module.Path, modPath+"/"))
	}
	for _, p := range pkgs {
		if own(p) {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		} else if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	decls := map[types.Object]*declInfo{}
	var roots []types.Object
	internalPrefix := modPath + "/internal/"
	internalPkg := map[*types.Package]bool{}

	for _, p := range order {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		if strings.HasPrefix(p.ImportPath, internalPrefix) {
			internalPkg[tp] = true
		}
		for _, f := range files {
			tf := fset.File(f.Pos())
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					di := &declInfo{node: d, file: tf, names: []types.Object{obj}, refs: usesIn(info, d)}
					decls[obj] = di
					if d.Recv == nil && (d.Name.Name == "init" || (p.Name == "main" && d.Name.Name == "main")) {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var node ast.Node = s
						if len(d.Specs) == 1 {
							node = d
						}
						di := &declInfo{node: node, file: tf, refs: usesIn(info, s)}
						switch s := s.(type) {
						case *ast.TypeSpec:
							di.names = append(di.names, info.Defs[s.Name])
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := info.Defs[n]; obj != nil {
									di.names = append(di.names, obj)
								}
							}
							// Initializers run whenever the package is linked.
							if d.Tok == token.VAR && len(s.Values) > 0 {
								roots = append(roots, di.names...)
							}
						}
						for _, obj := range di.names {
							decls[obj] = di
						}
					}
				}
			}
		}
		if p.ImportPath == modPath {
			for _, name := range tp.Scope().Names() {
				obj := tp.Scope().Lookup(name)
				if !obj.Exported() {
					continue
				}
				roots = append(roots, obj)
				// An alias exports the name, not the aliased package's methods.
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok {
						for i := 0; i < named.NumMethods(); i++ {
							if m := named.Method(i); m.Exported() {
								roots = append(roots, m)
							}
						}
					}
				}
			}
		}
	}

	if len(internalPkg) == 0 {
		return nil, fmt.Errorf("no packages under %s", internalPrefix)
	}

	// Methods the standard library calls through its own interfaces.
	dynamic := map[string]bool{}
	for _, n := range []string{"Error", "String", "Format", "GoString", "MarshalJSON", "UnmarshalJSON",
		"MarshalText", "UnmarshalText", "Len", "Less", "Swap", "Push", "Pop", "ServeHTTP", "Unwrap",
		"Is", "As", "Read", "Write", "Close", "Set", "Get"} {
		dynamic[n] = true
	}
	reached := map[types.Object]bool{}
	var reachedTypes []*types.Named
	var work []types.Object
	mark := func(obj types.Object) {
		if obj == nil || reached[obj] {
			return
		}
		reached[obj] = true
		work = append(work, obj)
	}
	markMethods := func(named *types.Named, only string) {
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func)
			if dynamic[fn.Name()] && (only == "" || fn.Name() == only) {
				mark(fn.Origin())
			}
		}
	}
	for _, r := range roots {
		mark(r)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if fn, ok := obj.(*types.Func); ok {
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) && !dynamic[fn.Name()] {
				dynamic[fn.Name()] = true
				for _, named := range reachedTypes {
					markMethods(named, fn.Name())
				}
			}
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				reachedTypes = append(reachedTypes, named)
				markMethods(named, "")
			}
		}
		if di := decls[obj]; di != nil {
			for _, n := range di.names {
				mark(n)
			}
			for _, r := range di.refs {
				mark(r)
			}
		}
	}

	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var out []unreached
	done := map[*declInfo]bool{}
	for obj, di := range decls {
		if reached[obj] || done[di] || obj.Pkg() == nil || !internalPkg[obj.Pkg()] || obj.Name() == "_" {
			continue
		}
		done[di] = true
		name := strings.TrimPrefix(obj.Pkg().Path(), internalPrefix) + "."
		if fd, ok := di.node.(*ast.FuncDecl); ok && fd.Recv != nil {
			recv := fd.Recv.List[0].Type
			if st, ok := recv.(*ast.StarExpr); ok {
				recv = st.X
			}
			if ix, ok := recv.(*ast.IndexExpr); ok {
				recv = ix.X
			}
			name += recv.(*ast.Ident).Name + "."
		}
		name += obj.Name()
		start, end := di.node.Pos(), di.node.End()
		var doc *ast.CommentGroup
		switch n := di.node.(type) {
		case *ast.FuncDecl:
			doc = n.Doc
		case *ast.GenDecl:
			doc = n.Doc
		case *ast.TypeSpec:
			doc = n.Doc
		case *ast.ValueSpec:
			doc = n.Doc
		}
		if doc != nil {
			start = doc.Pos()
		}
		rel, err := filepath.Rel(absRoot, di.file.Name())
		if err != nil {
			rel = di.file.Name()
		}
		out = append(out, unreached{
			file:     rel,
			line:     di.file.Line(di.node.Pos()),
			name:     name,
			lines:    di.file.Line(end) - di.file.Line(start) + 1,
			exported: obj.Exported(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// usesIn returns every object n's identifiers refer to.
func usesIn(info *types.Info, n ast.Node) []types.Object {
	var objs []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			objs = append(objs, obj.Origin())
		case *types.TypeName, *types.Const, *types.Var:
			objs = append(objs, obj)
		}
		return true
	})
	return objs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
