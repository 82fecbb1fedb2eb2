package docs

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// codeSpanRE matches one-line inline code spans `like this`.
var codeSpanRE = regexp.MustCompile("`([^`\n]+)`")

// pathPrefixes are the repository trees a backticked path may name.
var pathPrefixes = []string{"cmd/", "internal/", "perfbench/", "examples/"}

// recordFiles are Markdown files that record history rather than describe
// the tree as it stands, so they may name paths that are gone.
var recordFiles = map[string]bool{"CHANGES.md": true, "PAPER.md": true}

// taskListRE matches a Markdown task-list item (`- [ ]`, `- [x]`). A file
// holding one is a work plan: it names the paths it asks to delete.
var taskListRE = regexp.MustCompile(`(?m)^\s*[-*] \[[ xX]\] `)

// docPath extracts the repository path a code span names, or "" when the
// span does not start with one of pathPrefixes. A `:line` suffix and a
// trailing `/...` package pattern are dropped.
func docPath(span string) string {
	fields := strings.Fields(span)
	if len(fields) == 0 {
		return ""
	}
	p := fields[0]
	ok := false
	for _, prefix := range pathPrefixes {
		ok = ok || strings.HasPrefix(p, prefix)
	}
	if !ok {
		return ""
	}
	if i := strings.IndexByte(p, ':'); i >= 0 {
		p = p[:i]
	}
	return strings.TrimSuffix(p, "/...")
}

// pathExists reports whether p names a file or directory under root, once
// any `.Symbol` suffixes on its last element are stripped
// (`internal/abr.NewByName`, `internal/sr.Config.OutW`).
func pathExists(root, p string) bool {
	for {
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(p))); err == nil {
			return true
		}
		i := strings.LastIndexByte(p, '.')
		if i < 0 || i < strings.LastIndexByte(p, '/') {
			return false
		}
		p = p[:i]
	}
}

// TestDocPaths fails on any backticked cmd/, internal/, perfbench/ or
// examples/ path in the repository's Markdown that does not exist on
// disk: a doc that names a deleted package or file is stale.
func TestDocPaths(t *testing.T) {
	root := repoRoot(t)
	for _, md := range markdownFiles(t, root) {
		rel, _ := filepath.Rel(root, md)
		if recordFiles[rel] {
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		if taskListRE.Match(data) {
			continue
		}
		for _, m := range codeSpanRE.FindAllStringSubmatch(string(data), -1) {
			if p := docPath(m[1]); p != "" && !pathExists(root, p) {
				t.Errorf("%s: `%s` names %s, which does not exist", rel, m[1], p)
			}
		}
	}
}
