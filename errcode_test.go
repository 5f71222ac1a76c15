package mpf

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exportedSentinels parses every non-test file of the root package and
// returns the names of all exported package-level `Err*` variables —
// the source of truth the ErrorCode mapping must stay total over.
func exportedSentinels(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, file, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.IsExported() && strings.HasPrefix(name.Name, "Err") {
						names = append(names, name.Name)
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no exported sentinels; is the test running outside the package directory?")
	}
	return names
}

// TestErrorCodeTotal asserts ErrorCode is total over the package's
// exported sentinels: every `Err*` variable declared in the root
// package maps to a distinct, stable, non-"internal" code. Adding a
// sentinel without teaching ErrorCode about it fails here.
func TestErrorCodeTotal(t *testing.T) {
	// Name → value for every sentinel the package exports today. A
	// sentinel missing from this map trips the AST check below.
	values := map[string]error{
		"ErrUnknownTable":    ErrUnknownTable,
		"ErrUnknownView":     ErrUnknownView,
		"ErrDuplicateTable":  ErrDuplicateTable,
		"ErrNotFunctional":   ErrNotFunctional,
		"ErrSchemaMismatch":  ErrSchemaMismatch,
		"ErrUnknownExecMode": ErrUnknownExecMode,
		"ErrCanceled":        ErrCanceled,
		"ErrIO":              ErrIO,
		"ErrCorrupt":         ErrCorrupt,
		"ErrBudget":          ErrBudget,
		"ErrPoolExhausted":   ErrPoolExhausted,
	}
	seen := map[string]string{}
	for _, name := range exportedSentinels(t) {
		err, ok := values[name]
		if !ok {
			t.Errorf("sentinel %s is not covered by TestErrorCodeTotal's value map — add it here and to errorCodes", name)
			continue
		}
		code := ErrorCode(err)
		if code == "" || code == "internal" {
			t.Errorf("ErrorCode(%s) = %q; every sentinel needs its own code", name, code)
		}
		if prev, dup := seen[code]; dup {
			t.Errorf("sentinels %s and %s share code %q", prev, name, code)
		}
		seen[code] = name
	}
}

// TestErrorCodeClassifies asserts the edge semantics: nil, wrapping,
// and unknown errors.
func TestErrorCodeClassifies(t *testing.T) {
	if got := ErrorCode(nil); got != "" {
		t.Fatalf("ErrorCode(nil) = %q, want \"\"", got)
	}
	if got := ErrorCode(fmt.Errorf("query: %w", ErrUnknownView)); got != "unknown_view" {
		t.Fatalf("wrapped sentinel = %q, want unknown_view", got)
	}
	if got := ErrorCode(&BudgetError{Resource: "rows", Limit: 1, Used: 2}); got != "budget_exceeded" {
		t.Fatalf("BudgetError = %q, want budget_exceeded", got)
	}
	if got := ErrorCode(fmt.Errorf("boom")); got != "internal" {
		t.Fatalf("unknown error = %q, want internal", got)
	}
}
