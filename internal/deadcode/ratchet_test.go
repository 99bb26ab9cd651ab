package deadcode

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateRatchet = flag.Bool("update", false, "rewrite testdata/ratchet.json with the tree's numbers")

// ratchetFile holds the size ratchet's entries.
var ratchetFile = filepath.Join("testdata", "ratchet.json")

// TestRatchet holds the tree to the sizes in testdata/ratchet.json: the
// non-test Go lines of each package directory under internal/ and cmd/
// and of the root, the lines of DESIGN.md and README.md, and the entries
// of the guard's three allowlists. A number above its entry, or a
// directory without one, fails; a number below its entry is logged, so
// that the change can lower the entry. Rewrite the file with `go test
// ./internal/deadcode -run TestRatchet -update`.
func TestRatchet(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	got, err := measure(root, map[string]int{
		"allowlist": len(allowlist), "defaults": len(defaults), "knobs": len(knobs),
	})
	if err != nil {
		t.Fatal(err)
	}
	if *updateRatchet {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ratchetFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readRatchet(ratchetFile)
	if err != nil {
		t.Fatal(err)
	}
	rises, falls := ratchet(got, want)
	for _, f := range falls {
		t.Log(f)
	}
	for _, r := range rises {
		t.Error(r)
	}
}

// TestRatchetCatchesGrowth plants a small tree, records it, then grows one
// package by a line: the ratchet must report that growth and nothing else,
// and report a new package; test files, testdata and shrinking must pass.
func TestRatchetCatchesGrowth(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("doc.go", "package root\n")
	write("internal/a/a.go", "package a\n\nfunc A() {}\n")
	write("internal/a/a_test.go", "package a\n")
	write("internal/a/testdata/x.go", "package x\n")
	write("internal/b/b.go", "package b\n\nfunc B() {}\n\nfunc C() {}\n")
	write("cmd/c/main.go", "package main\n\nfunc main() {}\n")
	write("DESIGN.md", "# Design\n")
	write("README.md", "# Readme\n\nText.\n")
	lists := map[string]int{"allowlist": 2}
	recorded, err := measure(root, lists)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{".": 1, "internal/a": 3, "internal/b": 5, "cmd/c": 3,
		"DESIGN.md": 1, "README.md": 3, "allowlist": 2}
	if fmt.Sprint(recorded) != fmt.Sprint(want) {
		t.Fatalf("measured %v, want %v", recorded, want)
	}

	write("internal/a/a.go", "package a\n\nfunc A() {}\n\nfunc D() {}\n") // +2 lines
	write("internal/a/a_test.go", "package a\n\nfunc TestA() {}\n")       // tests are free
	write("internal/a/testdata/x.go", "package x\n\nvar X int\n")         // so is testdata
	write("internal/b/b.go", "package b\n\nfunc B() {}\n")                // -2 lines
	write("internal/d/d.go", "package d\n")                               // a new package
	lists["allowlist"] = 3
	grown, err := measure(root, lists)
	if err != nil {
		t.Fatal(err)
	}
	rises, falls := ratchet(grown, recorded)
	wantRises := []string{
		"allowlist: 3, above its ratchet entry 2",
		"internal/a: 5, above its ratchet entry 3",
		"internal/d: 1 and no ratchet entry",
	}
	wantFalls := []string{"internal/b: 3, below its ratchet entry 5; lower the entry"}
	if strings.Join(rises, "\n") != strings.Join(wantRises, "\n") {
		t.Errorf("rises:\n%s\nwant:\n%s", strings.Join(rises, "\n"), strings.Join(wantRises, "\n"))
	}
	if strings.Join(falls, "\n") != strings.Join(wantFalls, "\n") {
		t.Errorf("falls:\n%s\nwant:\n%s", strings.Join(falls, "\n"), strings.Join(wantFalls, "\n"))
	}
}

// measure returns the ratchet's numbers for the tree at root, with extra's
// entries added: for the root and every package directory under internal/
// and cmd/ (testdata and hidden directories left out), the lines of its
// non-test .go files; and the lines of DESIGN.md and README.md.
func measure(root string, extra map[string]int) (map[string]int, error) {
	out := map[string]int{}
	for k, v := range extra {
		out[k] = v
	}
	lines := func(path string) (int, error) {
		data, err := os.ReadFile(path)
		return bytes.Count(data, []byte("\n")), err
	}
	count := func(dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		n, found := 0, false
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			l, err := lines(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			n, found = n+l, true
		}
		if found {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			out[filepath.ToSlash(rel)] = n
		}
		return nil
	}
	if err := count(root); err != nil {
		return nil, err
	}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return count(path)
		})
		if err != nil {
			return nil, err
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		l, err := lines(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		out[doc] = l
	}
	return out, nil
}

// readRatchet reads a ratchet file.
func readRatchet(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]int
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ratchet compares the numbers got with the entries want, each list
// sorted: rises are numbers above their entry or without one, falls are
// numbers below their entry and entries that name something gone.
func ratchet(got, want map[string]int) (rises, falls []string) {
	for k, n := range got {
		w, ok := want[k]
		switch {
		case !ok:
			rises = append(rises, fmt.Sprintf("%s: %d and no ratchet entry", k, n))
		case n > w:
			rises = append(rises, fmt.Sprintf("%s: %d, above its ratchet entry %d", k, n, w))
		case n < w:
			falls = append(falls, fmt.Sprintf("%s: %d, below its ratchet entry %d; lower the entry", k, n, w))
		}
	}
	for k, w := range want {
		if _, ok := got[k]; !ok {
			falls = append(falls, fmt.Sprintf("%s: gone, its ratchet entry is %d; remove the entry", k, w))
		}
	}
	sort.Strings(rises)
	sort.Strings(falls)
	return rises, falls
}
