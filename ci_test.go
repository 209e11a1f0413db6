package multikernel_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	runFlag  = regexp.MustCompile(`-run\s+('[^']*'|"[^"]*"|\S+)`)
	fuzzFlag = regexp.MustCompile(`-fuzz\s+(\S+)`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
)

// testNames lists the top-level test, fuzz and example functions of the
// package at dir, or of every package below it for a "./dir/..." pattern.
func testNames(t *testing.T, pkg string) []string {
	dir, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir && !recursive {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}

// go test -run passes silently when its pattern selects no test, and -fuzz
// when it names no fuzz target, so a test renamed or deleted without
// updating the workflow would quietly stop being run. Every alternative of
// every -run pattern in the CI workflow, and every -fuzz target, must select
// at least one test in the packages its command names.
func TestCIRunPatternsSelectTests(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(yml), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var names []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				names = append(names, testNames(t, f)...)
			}
		}
		if f := fuzzFlag.FindStringSubmatch(line); f != nil && !slices.Contains(names, f[1]) {
			t.Errorf("ci.yml: -fuzz %s names no fuzz target in: %s", f[1], strings.TrimSpace(line))
		}
		for _, alt := range strings.Split(strings.Trim(m[1], `'"`), "|") {
			top, _, _ := strings.Cut(alt, "/")
			if top == "^$" {
				continue // selects nothing on purpose (a -fuzz or -bench run)
			}
			re, err := regexp.Compile(top)
			if err != nil {
				t.Fatalf("ci.yml: bad -run alternative %q: %v", alt, err)
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: -run alternative %q selects no test in: %s", alt, strings.TrimSpace(line))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run patterns in ci.yml")
	}
}
