package streamagg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sentinelName matches the names every sentinel error in the module is
// declared under (ErrCorrupt, errShortBody, io.EOF, ...).
var sentinelName = regexp.MustCompile(`^(Err|err)[A-Z]|^EOF$`)

// formatVerb matches one Printf directive; group 1 holds the flags,
// width and precision, where each '*' consumes an argument of its own.
var formatVerb = regexp.MustCompile(`%([-+# 0-9.*]*)([a-zA-Z%])`)

// TestSentinelErrorsMatchedWithIs holds the module to its error
// contract: a sentinel may come back wrapped, so it is matched with
// errors.Is and wrapped with %w. It walks every .go file (tests
// included, testdata and the bench module excluded) and reports the
// three shapes that miss a wrapped sentinel: ==/!= against one, a case
// of a value switch naming one, and fmt.Errorf formatting one under a
// verb other than %w. It reads syntax only, so a sentinel is recognised
// by its name.
func TestSentinelErrorsMatchedWithIs(t *testing.T) {
	fset := token.NewFileSet()
	report := func(n ast.Node, msg string) { t.Errorf("%s: %s", fset.Position(n.Pos()), msg) }
	files := 0
	walkGoFiles(t, fset, func(_ string, f *ast.File) {
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isSentinel(n.X) || isSentinel(n.Y)) {
					report(n, "sentinel compared with "+n.Op.String()+"; use errors.Is")
				}
			case *ast.SwitchStmt:
				for _, s := range n.Body.List {
					for _, e := range s.(*ast.CaseClause).List {
						if n.Tag != nil && isSentinel(e) {
							report(e, "sentinel matched by a switch case; use errors.Is")
						}
					}
				}
			case *ast.CallExpr:
				for i, verb := range errorfVerbs(n) {
					if verb != 'w' && isSentinel(n.Args[i+1]) {
						report(n.Args[i+1], "sentinel formatted with %"+string(verb)+"; wrap it with %w")
					}
				}
			}
			return true
		})
	})
	if files == 0 {
		t.Fatal("walked no .go files")
	}
}

// errorfVerbs returns, for a fmt.Errorf call with a string-literal
// format, the verb that formats each argument after the format, as far
// as the arguments go; for any other call it returns nil.
func errorfVerbs(call *ast.CallExpr) []byte {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" || len(call.Args) < 2 {
		return nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	lit, isLit := call.Args[0].(*ast.BasicLit)
	if !ok || pkg.Name != "fmt" || !isLit || lit.Kind != token.STRING {
		return nil
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return nil
	}
	var verbs []byte
	for _, m := range formatVerb.FindAllStringSubmatch(format, -1) {
		if m[2] != "%" {
			verbs = append(verbs, strings.Repeat("*", strings.Count(m[1], "*"))+m[2]...)
		}
	}
	if n := len(call.Args) - 1; len(verbs) > n {
		verbs = verbs[:n]
	}
	return verbs
}

// walkGoFiles parses every .go file of the module, tests included and
// testdata and the bench module excluded, and hands each to visit.
func walkGoFiles(t *testing.T, fset *token.FileSet, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || d.Name() == "bench" || d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isSentinel reports whether e is an identifier or selector named like
// a sentinel error.
func isSentinel(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return sentinelName.MatchString(e.Name)
	case *ast.SelectorExpr:
		return sentinelName.MatchString(e.Sel.Name)
	}
	return false
}
