package annot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// parseSrc runs Parse over one in-memory file.
func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *Directives) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, Parse(fset, []*ast.File{f})
}

// funcDecl finds the named function declaration.
func funcDecl(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return fn
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

func TestFuncDirectivesAndArgs(t *testing.T) {
	_, f, d := parseSrc(t, `package p

// Read does a thing.
//
//obfus:secret addr data
func Read(addr, data uint64) {}

//obfus:secret
func Truth() uint64 { return 0 }

//obfus:public ciphertext is pad-XORed
func Seal(x uint64) uint64 { return x }
`)
	read := funcDecl(t, f, "Read")
	if !d.FuncHas(read, Secret) {
		t.Error("Read should carry //obfus:secret")
	}
	args, ok := d.FuncArgs(read, Secret)
	if !ok || len(args) != 2 || args[0] != "addr" || args[1] != "data" {
		t.Errorf("Read secret args = %v, %v; want [addr data]", args, ok)
	}
	truth := funcDecl(t, f, "Truth")
	if args, ok := d.FuncArgs(truth, Secret); !ok || len(args) != 0 {
		t.Errorf("bare //obfus:secret should parse with no args, got %v, %v", args, ok)
	}
	if !d.FuncHas(funcDecl(t, f, "Seal"), Public) {
		t.Error("Seal should carry //obfus:public")
	}
	if len(d.MalformedDirectives()) != 0 {
		t.Errorf("unexpected malformed directives: %v", d.MalformedDirectives())
	}
}

func TestTypeAndFieldDirectives(t *testing.T) {
	_, _, d := parseSrc(t, `package p

type lane struct {
	//obfus:secret
	addr uint64
	data uint64 //obfus:secret
	pub  uint64
}

type plain struct{ x int }
`)
	if d.FieldHas("plain", "x", Secret) {
		t.Error("plain.x must not be secret")
	}
	if !d.FieldHas("lane", "addr", Secret) {
		t.Error("lane.addr doc-comment directive missed")
	}
	if !d.FieldHas("lane", "data", Secret) {
		t.Error("lane.data line-comment directive missed")
	}
	if d.FieldHas("lane", "pub", Secret) {
		t.Error("lane.pub must not be secret")
	}
}

// TestMalformedDirectives covers every way a directive can rot: an empty
// //obfus:, a reasonless declassifier, and a reasonless suppression.
func TestMalformedDirectives(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty obfus", `package p

//obfus:
func f() {}
`},
		{"reasonless public", `package p

//obfus:public
func f() int { return 0 }
`},
		{"reasonless allow", `package p

func f() int {
	//lint:allow determinism
	return 0
}
`},
		{"allow with nothing", `package p

//lint:allow
func f() {}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, d := parseSrc(t, tc.src)
			if len(d.MalformedDirectives()) != 1 {
				t.Errorf("want exactly 1 malformed directive, got %v", d.MalformedDirectives())
			}
		})
	}
}

// TestDuplicateDirectiveOneDecl requires the same directive repeated on one
// declaration to be malformed — two //obfus:secret lines with different
// parameter lists would silently shadow each other otherwise.
func TestDuplicateDirectiveOneDecl(t *testing.T) {
	_, f, d := parseSrc(t, `package p

//obfus:secret addr
//obfus:secret data
func f(addr, data uint64) {}
`)
	if got := len(d.MalformedDirectives()); got != 1 {
		t.Fatalf("want 1 malformed (duplicate) directive, got %d: %v", got, d.MalformedDirectives())
	}
	// The first spelling must still be in force: malformed flags the rot
	// without deactivating the annotation.
	if !d.FuncHas(funcDecl(t, f, "f"), Secret) {
		t.Error("duplicate directive should not erase the original annotation")
	}
}

func TestAllowSitesUsedAndOrder(t *testing.T) {
	fset, f, d := parseSrc(t, `package p

func g() int {
	//lint:allow hotpath second site, later line
	return 1
}

func f() int {
	//lint:allow determinism first by position? no — g is above
	return 0
}
`)
	sites := d.AllowSites()
	if len(sites) != 2 {
		t.Fatalf("want 2 allow sites, got %d", len(sites))
	}
	if sites[0].Pos >= sites[1].Pos {
		t.Error("AllowSites not in positional order")
	}
	// Allowed on the suppressed line marks the site used; the other stays
	// stale.
	ret := funcDecl(t, f, "g").Body.List[0].Pos()
	if !d.Allowed("hotpath", fset, ret) {
		t.Error("suppression on preceding line should match the finding")
	}
	if d.Allowed("determinism", fset, ret) {
		t.Error("wrong-analyzer suppression must not match")
	}
	var used, stale int
	for _, s := range sites {
		if s.Used {
			used++
		} else {
			stale++
		}
	}
	if used != 1 || stale != 1 {
		t.Errorf("want 1 used + 1 stale site, got used=%d stale=%d", used, stale)
	}
}

// writePkg lays out a single-package directory and returns its file list.
func writePkg(t *testing.T, root, dir, src string) []string {
	t.Helper()
	abs := filepath.Join(root, dir)
	if err := os.MkdirAll(abs, 0o755); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(abs, "a.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return []string{file}
}

// TestModuleIndexCrossPackageIsolation seeds two packages that both declare
// Access (one annotated, one not) plus same-named types and fields, and
// requires lookups to stay package-scoped: an //obfus:* index must never
// bleed a directive from one import path onto a same-keyed symbol in
// another.
func TestModuleIndexCrossPackageIsolation(t *testing.T) {
	root := t.TempDir()
	aFiles := writePkg(t, root, "a", `package a

//obfus:secret addr
func Access(addr uint64) {}

type Lane struct {
	cipher uint64 //obfus:secret
}
`)
	bFiles := writePkg(t, root, "b", `package b

func Access(addr uint64) {}

type Lane struct {
	cipher uint64
}
`)
	idx := NewModuleIndex(map[string][]string{
		"m/a": aFiles,
		"m/b": bFiles,
	})

	pkgA := types.NewPackage("m/a", "a")
	pkgB := types.NewPackage("m/b", "b")
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "addr", types.Typ[types.Uint64])), nil, false)
	accessA := types.NewFunc(token.NoPos, pkgA, "Access", sig)
	accessB := types.NewFunc(token.NoPos, pkgB, "Access", sig)

	if !idx.FuncHas(accessA, Secret) {
		t.Error("a.Access should be indexed //obfus:secret")
	}
	if idx.FuncHas(accessB, Secret) {
		t.Error("b.Access must NOT inherit a.Access's directive (cross-package collision)")
	}
	if args, ok := idx.FuncArgs(accessA, Secret); !ok || len(args) != 1 || args[0] != "addr" {
		t.Errorf("a.Access secret args = %v, %v; want [addr]", args, ok)
	}

	if !idx.FieldHas(pkgA, "Lane", "cipher", Secret) {
		t.Error("a.Lane.cipher should be indexed //obfus:secret")
	}
	if idx.FieldHas(pkgB, "Lane", "cipher", Secret) {
		t.Error("b.Lane.cipher must NOT inherit a.Lane.cipher's directive")
	}

	// Unknown packages and nil funcs answer false, never panic.
	pkgC := types.NewPackage("m/c", "c")
	if idx.FieldHas(pkgC, "Lane", "cipher", Secret) {
		t.Error("unindexed package must report false")
	}
	if idx.FuncHas(nil, Secret) {
		t.Error("nil func must report false")
	}
	var nilIdx *ModuleIndex
	if nilIdx.FuncHas(accessA, Secret) {
		t.Error("nil index must report false")
	}
}

// TestModuleIndexMethodKeys checks receiver-qualified keys: Lane.Access and
// a pointer receiver resolve to the same "Recv.Name" key.
func TestModuleIndexMethodKeys(t *testing.T) {
	root := t.TempDir()
	files := writePkg(t, root, "a", `package a

type Lane struct{}

//obfus:hotpath
func (l *Lane) Access(addr uint64) {}
`)
	idx := NewModuleIndex(map[string][]string{"m/a": files})
	pkg := types.NewPackage("m/a", "a")
	laneObj := types.NewTypeName(token.NoPos, pkg, "Lane", nil)
	named := types.NewNamed(laneObj, types.NewStruct(nil, nil), nil)
	recv := types.NewVar(token.NoPos, pkg, "l", types.NewPointer(named))
	sig := types.NewSignatureType(recv, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "addr", types.Typ[types.Uint64])), nil, false)
	access := types.NewFunc(token.NoPos, pkg, "Access", sig)
	if !idx.FuncHas(access, Hotpath) {
		t.Error("pointer-receiver method key should resolve to Lane.Access")
	}
	if FuncKey(access) != "Lane.Access" {
		t.Errorf("FuncKey = %q, want Lane.Access", FuncKey(access))
	}
}
