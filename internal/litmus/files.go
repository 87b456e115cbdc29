package litmus

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ParseFile reads and parses one litmus file. Parse errors carry the
// offending source line but not the path; callers label them.
func ParseFile(path string) (*Test, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(src))
}

// Files lists the litmus files a path names: the path itself when it is
// a file, otherwise every .litmus file beneath the directory, in lexical
// order.
func Files(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	var paths []string
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".litmus") {
			paths = append(paths, p)
		}
		return err
	})
	return paths, err
}
