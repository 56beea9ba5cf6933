package docscheck

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxRuntimeLines bounds the runtime plane's non-test Go lines (as wc -l
// counts them, comments and blank lines included). It is a ratchet: a
// change that removes lines lowers it to the new count, and one that
// needs more raises it on purpose, in the same change, saying why.
const maxRuntimeLines = 16241

// goLines counts the lines of the non-test Go files under each root,
// walking its subdirectories when deep is set.
func goLines(t *testing.T, deep bool, roots ...string) int {
	t.Helper()
	n := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != root && !deep {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			data, err := os.ReadFile(path)
			n += bytes.Count(data, []byte("\n"))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// dirs maps package names under internal/ to their directories.
func dirs(pkgs []string) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = "../" + p
	}
	return out
}

// TestRuntimeLineRatchet counts the non-test Go lines of the runtime
// plane (the packages imports_test.go fences), and logs them beside the
// harness's (bench/ and internal/swarm) and the paper plane's. It
// fails when the runtime count passes maxRuntimeLines.
func TestRuntimeLineRatchet(t *testing.T) {
	runtime := goLines(t, false, dirs(runtimePlane)...)
	harness := goLines(t, true, "../../bench", "../swarm")
	paper := goLines(t, false, dirs(paperPlane)...)
	t.Logf("non-test Go lines: runtime %d (bound %d), harness %d, paper plane %d", runtime, maxRuntimeLines, harness, paper)
	if runtime > maxRuntimeLines {
		t.Errorf("the runtime plane has %d non-test Go lines, over the ratchet's %d: take lines out, or raise maxRuntimeLines on purpose", runtime, maxRuntimeLines)
	}
}
