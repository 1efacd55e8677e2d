// Package annot parses the source annotations shared by every obfuslint
// analyzer:
//
//	//obfus:hotpath      function is a zero-alloc hot leg (hotpath analyzer)
//	//obfus:wallclock    function legitimately reads the wall clock
//	//obfus:scoring      function may read attack ground truth (wireonly analyzer)
//	//obfus:secret [params...]         function results (bare) or the named
//	                                   parameters carry secrets (secretflow)
//	//obfus:public <reason>            declassifier: results are safe for the
//	                                   wire, with a mandatory reason
//	//lint:allow <analyzer> <reason>   suppress one finding, with a reason
//
// Function directives live in the declaration's doc comment and classify the
// whole function; //obfus:secret also attaches to struct fields (doc or line
// comment). //lint:allow is positional: written on (or on the line directly
// above) the flagged line, it suppresses that analyzer's diagnostics for that
// line only. A reason is mandatory — a suppression without an explanation is
// itself reported by the driver, as is a declassifier without one, or the
// same directive repeated on one declaration.
package annot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// Directive name constants.
const (
	Hotpath   = "hotpath"
	Wallclock = "wallclock"
	Scoring   = "scoring"
	Secret    = "secret"
	Public    = "public"
)

const (
	obfusPrefix = "//obfus:"
	allowPrefix = "//lint:allow"
)

// AllowSite is one parsed //lint:allow comment. The driver marks a site Used
// when it suppresses a finding; sites still unused after a full run are
// stale and reported by the hygiene check.
type AllowSite struct {
	Analyzer string
	Pos      token.Pos
	line     int // suppresses findings on this line and the next
	Used     bool
}

// Malformed is a directive that failed to parse (missing analyzer name or
// reason, a reasonless declassifier, or a duplicated directive). The driver
// surfaces these as findings so suppressions cannot silently rot.
type Malformed struct {
	Pos  token.Pos
	Text string
}

// Directives is the parsed annotation set of one package.
type Directives struct {
	funcs     map[*ast.FuncDecl]map[string][]string // decl -> directive -> args
	fields    map[string]bool                       // "Type.Field\x00directive"
	allowsByF map[string][]*AllowSite               // filename -> sites
	malformed []Malformed
}

// Parse extracts the directives from the package's files.
func Parse(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		funcs:     make(map[*ast.FuncDecl]map[string][]string),
		fields:    make(map[string]bool),
		allowsByF: make(map[string][]*AllowSite),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parseAllow(fset, c)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.parseFuncDecl(decl)
			case *ast.GenDecl:
				d.parseGenDecl(decl)
			}
		}
	}
	return d
}

func (d *Directives) parseFuncDecl(fn *ast.FuncDecl) {
	if fn.Doc == nil {
		return
	}
	for _, c := range fn.Doc.List {
		name, args, ok := d.splitObfus(c)
		if !ok {
			continue
		}
		set := d.funcs[fn]
		if set == nil {
			set = make(map[string][]string)
			d.funcs[fn] = set
		}
		if _, dup := set[name]; dup {
			d.malformed = append(d.malformed, Malformed{c.Pos(), c.Text + " (duplicate directive on one declaration)"})
			continue
		}
		set[name] = args
	}
}

// parseGenDecl collects field-level directives (//obfus:secret on a struct
// field's doc or line comment).
func (d *Directives) parseGenDecl(gd *ast.GenDecl) {
	if gd.Tok != token.TYPE {
		return
	}
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if cg == nil {
					continue
				}
				for _, c := range cg.List {
					name, _, ok := d.splitObfus(c)
					if !ok {
						continue
					}
					for _, fname := range field.Names {
						key := ts.Name.Name + "." + fname.Name + "\x00" + name
						if d.fields[key] {
							d.malformed = append(d.malformed, Malformed{c.Pos(), c.Text + " (duplicate directive on one declaration)"})
							continue
						}
						d.fields[key] = true
					}
				}
			}
		}
	}
}

// splitObfus parses one //obfus:<name> [args...] comment, recording
// malformed shapes (empty name, reasonless declassifier) as it goes.
func (d *Directives) splitObfus(c *ast.Comment) (name string, args []string, ok bool) {
	rest, found := strings.CutPrefix(c.Text, obfusPrefix)
	if !found {
		return "", nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		d.malformed = append(d.malformed, Malformed{c.Pos(), c.Text})
		return "", nil, false
	}
	if fields[0] == Public && len(fields) < 2 {
		// A declassifier is an auditable security decision; the reason is
		// not optional.
		d.malformed = append(d.malformed, Malformed{c.Pos(), c.Text + " (declassifier needs a reason)"})
		return "", nil, false
	}
	return fields[0], fields[1:], true
}

func (d *Directives) parseAllow(fset *token.FileSet, c *ast.Comment) {
	rest, ok := strings.CutPrefix(c.Text, allowPrefix)
	if !ok {
		return
	}
	fields := strings.Fields(rest)
	// An analyzer name plus at least one word of reason is mandatory.
	if len(fields) < 2 {
		d.malformed = append(d.malformed, Malformed{c.Pos(), c.Text})
		return
	}
	pos := fset.Position(c.Pos())
	d.allowsByF[pos.Filename] = append(d.allowsByF[pos.Filename], &AllowSite{
		Analyzer: fields[0],
		Pos:      c.Pos(),
		line:     pos.Line,
	})
}

// FuncHas reports whether fn's doc comment carries //obfus:<name>.
func (d *Directives) FuncHas(fn *ast.FuncDecl, name string) bool {
	_, ok := d.funcs[fn][name]
	return ok
}

// FuncArgs returns the arguments of //obfus:<name> on fn's doc comment and
// whether the directive is present at all (present with no arguments yields
// ok with a nil slice — e.g. a bare //obfus:secret marking all results).
func (d *Directives) FuncArgs(fn *ast.FuncDecl, name string) (args []string, ok bool) {
	args, ok = d.funcs[fn][name]
	return args, ok
}

// FieldHas reports whether the struct field Type.Field carries
// //obfus:<directive> on its doc or line comment.
func (d *Directives) FieldHas(typeName, fieldName, directive string) bool {
	return d.fields[typeName+"."+fieldName+"\x00"+directive]
}

// Allowed reports whether a finding of the named analyzer at pos is
// suppressed by a //lint:allow comment on the same or the preceding line,
// marking the matching site as having earned its keep.
func (d *Directives) Allowed(analyzer string, fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, a := range d.allowsByF[p.Filename] {
		if a.Analyzer == analyzer && (a.line == p.Line || a.line == p.Line-1) {
			a.Used = true
			return true
		}
	}
	return false
}

// AllowSites returns every //lint:allow site of the package in positional
// order, with Used reflecting the suppressions exercised so far.
func (d *Directives) AllowSites() []*AllowSite {
	var out []*AllowSite
	for _, sites := range d.allowsByF {
		out = append(out, sites...)
	}
	// Token positions within one FileSet order files by registration, which
	// is deterministic for a deterministic loader.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pos < out[j-1].Pos; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Malformed returns the unparsable directives found in the package.
func (d *Directives) MalformedDirectives() []Malformed { return d.malformed }

// ModuleIndex answers cross-package annotation queries ("is the callee in
// that other package marked //obfus:hotpath?") by lazily parsing the other
// package's sources. Construction is cheap; packages parse on first query
// and are cached. Safe for concurrent use.
type ModuleIndex struct {
	mu   sync.Mutex
	dirs map[string][]string          // import path -> absolute Go file paths
	fns  map[string]map[string]string // import path -> "key\x00directive" -> marker + joined args
}

// indexed marks a present directive in the cross-package index; arguments,
// when any, follow space-separated.
const indexed = "\x01"

// NewModuleIndex builds an index over import path -> source files.
func NewModuleIndex(files map[string][]string) *ModuleIndex {
	return &ModuleIndex{dirs: files, fns: make(map[string]map[string]string)}
}

func (m *ModuleIndex) lookup(pkg *types.Package, key string) (string, bool) {
	if m == nil || pkg == nil {
		return "", false
	}
	path := pkg.Path()
	m.mu.Lock()
	defer m.mu.Unlock()
	set, ok := m.fns[path]
	if !ok {
		set = m.parseLocked(path)
		m.fns[path] = set
	}
	v, ok := set[key]
	return v, ok
}

// FuncHas reports whether fn (a function or method in an indexed package)
// carries //obfus:<directive> on its declaration. Unknown packages and
// functions report false.
func (m *ModuleIndex) FuncHas(fn *types.Func, directive string) bool {
	if fn == nil {
		return false
	}
	_, ok := m.lookup(fn.Pkg(), FuncKey(fn)+"\x00"+directive)
	return ok
}

// FuncArgs returns the arguments of //obfus:<directive> on fn's declaration
// and whether the directive is present.
func (m *ModuleIndex) FuncArgs(fn *types.Func, directive string) (args []string, ok bool) {
	if fn == nil {
		return nil, false
	}
	v, ok := m.lookup(fn.Pkg(), FuncKey(fn)+"\x00"+directive)
	if !ok {
		return nil, false
	}
	if rest := strings.TrimPrefix(v, indexed); rest != "" {
		args = strings.Fields(rest)
	}
	return args, true
}

// FieldHas reports whether the struct field Type.Field in pkg carries
// //obfus:<directive>.
func (m *ModuleIndex) FieldHas(pkg *types.Package, typeName, fieldName, directive string) bool {
	_, ok := m.lookup(pkg, "field "+typeName+"."+fieldName+"\x00"+directive)
	return ok
}

// FuncKey names a function "Name" or "Recv.Name" with pointer receivers
// stripped, matching DeclKey below. It is also the key interprocedural
// passes use for their per-function facts.
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// DeclKey is FuncKey computed syntactically from a declaration.
func DeclKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name + "." + fn.Name.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

func (m *ModuleIndex) parseLocked(path string) map[string]string {
	set := make(map[string]string)
	add := func(key string, c *ast.Comment) {
		rest, ok := strings.CutPrefix(c.Text, obfusPrefix)
		if !ok {
			return
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return // malformed; reported when that package is analyzed
		}
		set[key+"\x00"+fields[0]] = indexed + strings.Join(fields[1:], " ")
	}
	fset := token.NewFileSet()
	for _, file := range m.dirs[path] {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Doc == nil {
					continue
				}
				for _, c := range decl.Doc.List {
					add(DeclKey(decl), c)
				}
			case *ast.GenDecl:
				if decl.Tok != token.TYPE {
					continue
				}
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok || st.Fields == nil {
						continue
					}
					for _, field := range st.Fields.List {
						for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
							if cg == nil {
								continue
							}
							for _, c := range cg.List {
								for _, fname := range field.Names {
									add("field "+ts.Name.Name+"."+fname.Name, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return set
}
