// Package vpdirective parses the //vp: comment directives that declare the
// serving spine's hot-path contracts in source, where the analyzers in
// sibling packages (borrowck, hotpath) can enforce them at go vet
// time.
//
// The grammar deliberately mirrors the //go: pragma family: a directive is a
// line comment whose text starts with "vp:" immediately after the slashes
// (no space), followed by the directive name and space-separated arguments.
// Directives attach to the declaration whose doc comment they appear in:
//
//	//vp:hotpath
//	//  on a function or method: the function and everything it statically
//	//  calls inside this module must not contain allocating constructs.
//
//	//vp:borrowed param [param...]
//	//  on a function or method: the named pointer-typed parameters are
//	//  borrowed for the duration of the call and must not be stored,
//	//  captured, sent, appended or returned.
//
//	//vp:allocok reason
//	//  on (or immediately above) an allocating line inside a hot-path
//	//  function: waives that one allocation site. The reason is mandatory
//	//  by convention — it documents why the allocation is amortized or
//	//  unreachable on the serving path (cold error path, warm-scratch
//	//  growth, lazy one-time init).
package vpdirective

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the comment marker shared by all directives.
const Prefix = "vp:"

// Func holds the directives attached to one function declaration.
type Func struct {
	// Hotpath reports a //vp:hotpath directive.
	Hotpath bool
	// Borrowed lists parameter names from //vp:borrowed directives, in
	// source order across all such lines.
	Borrowed []string
	// BorrowedPos is the position of the first //vp:borrowed directive
	// (for diagnostics about the directive itself).
	BorrowedPos token.Pos
}

// parse splits one comment's text into a directive name and its arguments,
// or returns ok=false for ordinary comments. Directives are line comments of
// the form "//vp:name arg arg" with no space between // and vp:.
func parse(c *ast.Comment) (name string, args []string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//"+Prefix) {
		return "", nil, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, "//"+Prefix))
	if len(fields) == 0 {
		return "", nil, false
	}
	return fields[0], fields[1:], true
}

// ForFunc extracts the directives in a function declaration's doc comment.
func ForFunc(fd *ast.FuncDecl) Func {
	var out Func
	if fd.Doc == nil {
		return out
	}
	for _, c := range fd.Doc.List {
		name, args, ok := parse(c)
		if !ok {
			continue
		}
		switch name {
		case "hotpath":
			out.Hotpath = true
		case "borrowed":
			if out.BorrowedPos == token.NoPos {
				out.BorrowedPos = c.Pos()
			}
			out.Borrowed = append(out.Borrowed, args...)
		}
	}
	return out
}

// AllocWaivers returns the set of line numbers in f (1-based, in f's file)
// carrying a //vp:allocok waiver. A waiver on line N suppresses hot-path
// allocation diagnostics on lines N and N+1, so both trailing and preceding
// placements work:
//
//	buf = grow(buf) //vp:allocok warm-scratch growth, amortized
//
//	//vp:allocok lazy one-time init, pinned by TestQualityFoldZeroAlloc
//	m = make(map[string]int)
func AllocWaivers(fset *token.FileSet, f *ast.File) map[int]bool {
	var lines map[int]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, _, ok := parse(c)
			if !ok || name != "allocok" {
				continue
			}
			if lines == nil {
				lines = make(map[int]bool)
			}
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

// Waived reports whether pos falls on a line covered by a waiver set from
// AllocWaivers (the waiver's own line or the line after it).
func Waived(waivers map[int]bool, fset *token.FileSet, pos token.Pos) bool {
	if len(waivers) == 0 {
		return false
	}
	line := fset.Position(pos).Line
	return waivers[line] || waivers[line-1]
}
