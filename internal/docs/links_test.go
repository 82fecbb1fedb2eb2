package docs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// linkRE matches inline Markdown links [text](target). Images and
// reference-style definitions are rare enough here not to special-case;
// image links ![alt](target) are caught by the same pattern.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// repoRoot walks up from the test's working directory to the directory
// containing go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// skipTarget reports whether a link target is out of scope for the
// dead-link check: external URLs, mail links, and intra-page anchors.
func skipTarget(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// markdownFiles returns every *.md of the repository below root.
func markdownFiles(t *testing.T, root string) []string {
	t.Helper()
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// .git holds packed refs, not docs; testdata may hold
			// deliberately broken fixtures.
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no Markdown files found — walk is broken")
	}
	return mdFiles
}

// TestDocLinks fails on any relative Markdown link whose target does not
// exist on disk, in every *.md of the repository.
func TestDocLinks(t *testing.T) {
	root := repoRoot(t)
	for _, md := range markdownFiles(t, root) {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, md)
		for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if skipTarget(target) {
				continue
			}
			// A relative link may carry an anchor: FILE.md#section.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
				if target == "" {
					continue
				}
			}
			resolved := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead link %q (resolved to %s)", rel, m[1], resolved)
			}
		}
	}
}
