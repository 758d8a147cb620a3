package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GlobalState flags package-level variables that hold sync or sync/atomic
// state in deterministic-path packages. A package-level lock, once or
// atomic is what turns a variable into process-global mutable state: every
// run in the process shares it, so a memo keyed by hand can serve one run
// another's results, and a test cannot see the work it hides. Such state
// belongs to a value the caller owns and passes explicitly (an engine, a
// cache). Read-only tables carry no lock and stay legal; blank vars are
// exempt.
var GlobalState = &Analyzer{
	Name: "globalstate",
	Doc: "forbid package-level vars holding sync or sync/atomic state on " +
		"the deterministic path; process-global mutable state belongs to a " +
		"value the caller owns and passes explicitly",
	Run: runGlobalState,
}

func runGlobalState(pass *Pass) error {
	if !OnDeterministicPath(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					obj := pass.Info.Defs[name]
					if name.Name == "_" || obj == nil {
						continue
					}
					if held := syncTypeIn(obj.Type(), map[types.Type]bool{}); held != "" {
						pass.Reportf(name.Pos(), "package-level var %s holds %s, process-global state shared by every run; keep it in a value the caller owns and passes explicitly", name.Name, held)
					}
				}
			}
		}
	}
	return nil
}

// syncTypeIn returns the name of the first sync or sync/atomic type that t
// is or contains through struct fields, arrays, pointers, slices or maps,
// or "" when it holds none. seen cuts recursive types.
func syncTypeIn(t types.Type, seen map[types.Type]bool) string {
	t = types.Unalias(t)
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if pkg := u.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
			return pkg.Name() + "." + u.Obj().Name()
		}
		return syncTypeIn(u.Underlying(), seen)
	case *types.Pointer:
		return syncTypeIn(u.Elem(), seen)
	case *types.Slice:
		return syncTypeIn(u.Elem(), seen)
	case *types.Array:
		return syncTypeIn(u.Elem(), seen)
	case *types.Map:
		if held := syncTypeIn(u.Elem(), seen); held != "" {
			return held
		}
		return syncTypeIn(u.Key(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if held := syncTypeIn(u.Field(i).Type(), seen); held != "" {
				return held
			}
		}
	}
	return ""
}
