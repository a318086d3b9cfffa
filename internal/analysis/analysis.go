// Package analysis implements crono-vet, a repo-specific static checker
// that enforces the kernel-authoring invariants of the exec.Ctx contract:
// lock pairing, cancellation liveness, barrier uniformity, simulator
// determinism and annotated addressing. It is built purely on the
// standard library (go/parser, go/ast, go/types, go/importer).
//
// A finding can be suppressed by placing a
//
//	//crono:vet-ignore [checker ...]
//
// line comment on the reported line or the line directly above it.
// Without checker names the directive silences every checker for that
// line; with names, only the listed ones. The staleignore checker
// closes the loop on the escape hatch: a directive that suppresses
// nothing — when every checker it could silence has actually run — is
// itself reported, so justifications cannot outlive the code they
// excuse.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding of one checker.
type Diagnostic struct {
	// File is the source file path as the loader saw it.
	File string `json:"file"`
	// Line and Col are the 1-based position of the finding.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Checker names the checker that produced the finding.
	Checker string `json:"checker"`
	// Message describes the violated invariant.
	Message string `json:"message"`
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Checker, d.Message)
}

// Config carries the repo-specific knobs of the checker suite.
type Config struct {
	// SimVisible lists the import paths whose code executes under (or
	// feeds annotations into) the deterministic simulator; the
	// simdeterminism checker applies only inside them.
	SimVisible []string
}

// DefaultConfig returns the configuration for the crono repository
// itself: every package whose annotations or state reach the simulator
// is sim-visible. internal/native is the wall-clock platform and
// internal/graph is input generation, so both are exempt.
func DefaultConfig() Config {
	return Config{SimVisible: []string{
		"crono/internal/exec",
		"crono/internal/core",
		"crono/internal/sim",
		"crono/internal/cache",
		"crono/internal/coherence",
		"crono/internal/dram",
		"crono/internal/energy",
		"crono/internal/noc",
	}}
}

// Pass is the per-package, per-checker invocation context.
type Pass struct {
	// Checker is the running checker's name.
	Checker string
	// Fset resolves token positions.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// Config is the suite configuration.
	Config Config

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Checker: p.Checker,
		Message: fmt.Sprintf(format, args...),
	})
}

// Checker is one registered invariant checker.
type Checker struct {
	// Name is the short identifier used in diagnostics and ignore
	// directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run analyzes one package, reporting findings through the pass.
	Run func(*Pass)
}

// Checkers returns the full registry in stable order.
func Checkers() []*Checker {
	return []*Checker{
		LockPair,
		CheckpointLoop,
		DivergentBarrier,
		SimDeterminism,
		RawAddr,
		UnguardedStore,
		StaleIgnore,
	}
}

// CheckerByName resolves a registered checker.
func CheckerByName(name string) (*Checker, error) {
	for _, c := range Checkers() {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("analysis: unknown checker %q", name)
}

// Run executes the checkers over the packages and returns the surviving
// diagnostics sorted by file, line, column, checker and message — a
// total order, so repeated runs over the same tree are byte-identical.
// Findings on lines covered by a //crono:vet-ignore directive are
// dropped; when staleignore is among the checkers, directives that
// suppressed nothing are reported after the suppression pass (the only
// point where "suppressed nothing" is knowable).
func Run(fset *token.FileSet, pkgs []*Package, checkers []*Checker, cfg Config) []Diagnostic {
	ran := make([]*Checker, 0, len(checkers))
	staleSelected := false
	for _, c := range checkers {
		if c.Name == StaleIgnore.Name {
			staleSelected = true
			continue
		}
		ran = append(ran, c)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(fset, pkg.Files)
		var pkgDiags []Diagnostic
		for _, c := range ran {
			pass := &Pass{Checker: c.Name, Fset: fset, Pkg: pkg, Config: cfg, diags: &pkgDiags}
			c.Run(pass)
		}
		for _, d := range pkgDiags {
			if !ignores.covers(d) {
				diags = append(diags, d)
			}
		}
		if staleSelected {
			// Stale reports bypass the ignore filter — a directive must
			// not suppress its own staleness. The opt-out is explicit:
			// name staleignore in the directive itself.
			pass := &Pass{Checker: StaleIgnore.Name, Fset: fset, Pkg: pkg, Config: cfg, diags: &diags}
			reportStaleIgnores(pass, ignores, ran)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Message < b.Message
	})
	return diags
}

// ignoreDirective is the comment prefix of the suppression escape hatch.
const ignoreDirective = "crono:vet-ignore"

// ignoreEntry is the merged suppression state of one source line: the
// checkers silenced there, whether a bare (silence-everything) directive
// appeared, and whether any diagnostic was actually suppressed — the
// fact staleignore assesses.
type ignoreEntry struct {
	pos   token.Pos
	names []string // listed checkers; meaningless when all is set
	all   bool     // bare directive: silence every checker
	used  bool     // suppressed at least one finding this run
}

// ignoreSet records, per file and line, the suppression entry there.
type ignoreSet map[string]map[int]*ignoreEntry

func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	set := make(ignoreSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				rest, ok := strings.CutPrefix(strings.TrimLeft(text, " \t"), ignoreDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				names := strings.FieldsFunc(rest, func(r rune) bool {
					return r == ' ' || r == '\t' || r == ','
				})
				pos := fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*ignoreEntry)
					set[pos.Filename] = byLine
				}
				e := byLine[pos.Line]
				if e == nil {
					e = &ignoreEntry{pos: c.Pos()}
					byLine[pos.Line] = e
				}
				if len(names) == 0 {
					e.all = true // silence everything
					e.names = nil
				} else if !e.all {
					e.names = append(e.names, names...)
				}
			}
		}
	}
	return set
}

// covers reports whether d is silenced by a directive on its line or the
// line directly above, marking the silencing entry used.
func (s ignoreSet) covers(d Diagnostic) bool {
	byLine, ok := s[d.File]
	if !ok {
		return false
	}
	for _, line := range [2]int{d.Line, d.Line - 1} {
		e, ok := byLine[line]
		if !ok {
			continue
		}
		if e.all {
			e.used = true
			return true
		}
		for _, n := range e.names {
			if n == d.Checker {
				e.used = true
				return true
			}
		}
	}
	return false
}
