package docscheck

import (
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// runtimePlane is what a deployment runs: the wire, the server and its
// cluster, the client library, and the packages under them.
var runtimePlane = []string{
	"protocol", "transport", "server", "client", "cluster", "grouplog",
	"floor", "group", "whiteboard", "shard", "metrics", "trace", "clock",
	"resource", "netsim",
	// media belongs with the paper plane but the client imports it for
	// media.Unit and media.Source — the one crossing, tolerated until
	// those two move runtime-side. Checking media here keeps it a leaf:
	// the exception cannot become a bridge into the fenced packages.
	"media",
}

// paperPlane reproduces the paper's figures and experiments (Petri
// nets, OCPN/DOCPN models, scenarios, the presentation engine). It may
// import the runtime; the runtime must never import it.
var paperPlane = []string{
	"petri", "ocpn", "docpn", "eventq", "scenario", "presentation", "experiments",
}

// TestRuntimeNeverImportsPaperPlane is the import-direction fence: no
// file of a runtime package, tests included, imports a paper-plane
// package.
func TestRuntimeNeverImportsPaperPlane(t *testing.T) {
	fenced := make(map[string]bool, len(paperPlane))
	for _, p := range paperPlane {
		fenced["dmps/internal/"+p] = true
	}
	for _, pkg := range runtimePlane {
		fset := token.NewFileSet()
		parsed, err := parser.ParseDir(fset, "../"+pkg, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		if len(parsed) == 0 {
			t.Errorf("runtime package %s has no Go files", pkg)
		}
		for _, p := range parsed {
			for path, file := range p.Files {
				for _, imp := range file.Imports {
					target, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					if fenced[target] {
						t.Errorf("%s imports %s: the runtime must not depend on the paper-reproduction plane",
							strings.TrimPrefix(path, "../"), target)
					}
				}
			}
		}
	}
}
