package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"cicero/internal/chaos"
)

// TestDocsQuoteWhatExists keeps the documents a builder follows from
// naming what is gone: every cmd/<name> and examples/<name> they quote is
// a directory, every -experiment <name> is registered (or "all"), every
// -profile <name> is a chaos profile. docs/history is a record of what
// was, and is not checked; bench/README.md is edited only by benchmark PRs.
func TestDocsQuoteWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	isDir := func(parent string) func(string) bool {
		return func(name string) bool {
			st, err := os.Stat(filepath.Join(root, parent, name))
			return err == nil && st.IsDir()
		}
	}
	quoted := []struct {
		what   string
		re     *regexp.Regexp
		exists func(name string) bool
	}{
		{"cmd/", regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`), isDir("cmd")},
		{"examples/", regexp.MustCompile(`\bexamples/([A-Za-z0-9_-]+)`), isDir("examples")},
		// A flag, not the tail of a word such as "per-experiment".
		{"-experiment ", regexp.MustCompile("(?:^|[\\s`(])-experiment[ =]([A-Za-z0-9_-]+)"), func(name string) bool {
			return name == "all" || Registry()[name] != nil
		}},
		{"-profile ", regexp.MustCompile("(?:^|[\\s`(])-profile[ =]([A-Za-z0-9_-]+)"), func(name string) bool {
			_, err := chaos.ProfileByName(name)
			return err == nil
		}},
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, q := range quoted {
			for _, m := range q.re.FindAllStringSubmatch(string(text), -1) {
				found++
				if !q.exists(m[1]) {
					t.Errorf("%s quotes %s%s, which does not exist", doc, q.what, m[1])
				}
			}
		}
		if found == 0 {
			t.Errorf("%s quotes no command, example, experiment or profile: the patterns no longer match how it writes them", doc)
		}
	}
}
