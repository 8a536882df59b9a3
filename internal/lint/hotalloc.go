package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc turns the steady-state zero-alloc contract (0 allocs/item
// on the batch ingest paths, pinned at runtime by the steady-state
// alloc tests in alloc_test.go, internal/cms (count-min, count-min-range
// and count-sketch), internal/hist and internal/mg, and by
// TestIngestorTracingDisabledAllocs) into a build-time gate. A function
// opts in with a doc-comment directive:
//
//	//agglint:hotpath
//	func (s *Sketch) ProcessBatch(items []uint64) { ... }
//
// Inside an annotated function the analyzer flags the allocation
// shapes that have actually regressed this repo before:
//
//   - fmt.* calls (allocate per verb, box every argument);
//   - time.Now (timestamping per item);
//   - function literals inside loops (a fresh closure per iteration);
//   - make / new / slice-map-pointer composite literals, unless inside
//     an amortized-growth guard (an if testing cap(), len(), or nil —
//     the reusable-scratch grow idiom);
//   - append onto freshly-made backing (append(nil, ...) and friends);
//   - boxing a scalar into an interface parameter.
//
// The AllocsPerRun tests prove the paths are clean at runtime; this
// proves new code keeps them clean before it ever runs.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//agglint:hotpath functions must not contain allocating constructs",
	Run:  runHotAlloc,
}

const hotpathDirective = "agglint:hotpath"

// isHotpath reports whether the function's doc comment carries the
// directive.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
	return nil
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			if insideLoop(stack) {
				pass.Reportf(n.Pos(), "closure inside a loop allocates per iteration in a hot path; hoist it or inline the body")
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, stack)
		case *ast.CompositeLit:
			checkHotComposite(pass, n, stack)
		}
		return true
	})
}

// insideLoop reports whether the current node is lexically inside a
// for/range statement of this function body.
func insideLoop(stack []ast.Node) bool {
	for _, n := range stack[:len(stack)-1] {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// growGuarded reports whether the node is inside an if whose condition
// tests capacity, length, or nil — the amortized reuse idiom
// (`if cap(*buf) < n { *buf = make(...) }`), whose alloc is a one-time
// or logarithmic cost, not per-item.
func growGuarded(pass *Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					if _, isBuiltin := objOf(pass.Info, id).(*types.Builtin); isBuiltin {
						guarded = true
					}
				}
			case *ast.Ident:
				if n.Name == "nil" {
					guarded = true
				}
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}

func checkHotCall(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	// Conversions aren't calls (string(b) et al. are out of scope).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	// Builtins: make/new allocate unless growth-guarded; append onto
	// fresh backing always allocates.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := objOf(pass.Info, id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				if !growGuarded(pass, stack) {
					pass.Reportf(call.Pos(), "%s allocates in a hot path; reuse scratch (guard with a cap/len/nil check for amortized growth)", id.Name)
				}
			case "append":
				if len(call.Args) > 0 && freshBacking(pass, call.Args[0]) {
					pass.Reportf(call.Pos(), "append onto freshly allocated backing in a hot path; append into reusable scratch")
				}
			}
			return
		}
	}
	// fmt.* and time.Now.
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "fmt":
			pass.Reportf(call.Pos(), "fmt.%s call in a hot path (allocates and boxes every argument)", fn.Name())
			return
		case fn.Pkg().Path() == "time" && fn.Name() == "Now":
			pass.Reportf(call.Pos(), "time.Now in a hot path; hoist timestamping out of the per-item loop")
			return
		}
	}
	checkBoxing(pass, call)
}

// calleeFunc resolves the called function/method object, if any.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	if fn := methodCallee(pass.Info, call); fn != nil {
		return fn
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		fn, _ := objOf(pass.Info, id).(*types.Func)
		return fn
	}
	return nil
}

// checkBoxing flags scalar arguments passed as interface parameters:
// the conversion heap-allocates the scalar's box.
func checkBoxing(pass *Pass, call *ast.CallExpr) {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || isNil(pass.Info, arg) {
			continue
		}
		if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Kind() != types.UntypedNil {
			pass.Reportf(arg.Pos(), "scalar %s boxed into interface argument in a hot path", at.String())
		}
	}
}

// freshBacking reports whether expr is obviously freshly allocated
// backing for append: nil, a composite literal, or a make call.
func freshBacking(pass *Pass, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "make" {
			_, isBuiltin := objOf(pass.Info, id).(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}

// checkHotComposite flags heap-bound composite literals: slices, maps,
// and address-taken struct literals. Plain value struct/array literals
// stay on the stack and pass.
func checkHotComposite(pass *Pass, lit *ast.CompositeLit, stack []ast.Node) {
	t := pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	heapKind := ""
	switch t.Underlying().(type) {
	case *types.Slice:
		heapKind = "slice literal"
	case *types.Map:
		heapKind = "map literal"
	default:
		// &T{...} escapes to the heap; value struct/array literals
		// stay on the stack.
		if len(stack) >= 2 {
			if un, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && un.Op == token.AND && un.X == ast.Expr(lit) {
				heapKind = "&composite literal"
			}
		}
	}
	if heapKind == "" || growGuarded(pass, stack) {
		return
	}
	pass.Reportf(lit.Pos(), "%s allocates in a hot path; reuse scratch instead", heapKind)
}
