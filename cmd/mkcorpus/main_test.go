package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realsum/internal/corpus"
)

// mkcorpus runs the command and returns its exit code and output.
func mkcorpus(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestWritesProfile materializes a small profile and checks that the
// tree on disk holds exactly the bytes the profile's walk yields.
func TestWritesProfile(t *testing.T) {
	dir := t.TempDir()
	const name, scale = "smeg.stanford.edu:/u1", 0.02
	code, out, errOut := mkcorpus(t, "-profile", name, "-out", dir, "-scale", fmt.Sprint(scale))
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	p, _ := corpus.ByName(name)
	var files int
	var total int64
	err := p.Scale(scale).Build().Walk(func(path string, data []byte) error {
		got, err := os.ReadFile(filepath.Join(dir, path))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("%s: %d bytes on disk differ from the profile's %d", path, len(got), len(data))
		}
		files++
		total += int64(len(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("wrote %d files (%d bytes) under %s\n", files, total, dir); out != want {
		t.Errorf("stdout %q, want %q", out, want)
	}
}

// TestListProfiles checks -profiles prints every known profile name.
func TestListProfiles(t *testing.T) {
	code, out, errOut := mkcorpus(t, "-profiles")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var want []string
	for _, p := range corpus.AllProfiles() {
		want = append(want, p.Name)
	}
	if got := strings.TrimSuffix(out, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("-profiles printed %q, want %q", got, want)
	}
}

// TestUsageErrorsExit2 checks that every rejected invocation exits 2
// with a message naming the problem, prints nothing on stdout and
// writes nothing.
func TestUsageErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-out", dir}, "-profile and -out are required"},
		{[]string{"-profile", "nsc05"}, "-profile and -out are required"},
		{[]string{"-profile", "nosuch", "-out", dir}, `unknown profile "nosuch"`},
		{[]string{"-profile", "nsc05", "-out", dir, "-scale", "-1"}, "-scale must be a positive finite number (got -1)"},
		{[]string{"-profile", "nsc05", "-out", dir, "-scale", "0"}, "-scale must be a positive finite number (got 0)"},
		{[]string{"-profile", "nsc05", "-out", dir, "-scale", "NaN"}, "-scale must be a positive finite number (got NaN)"},
		{[]string{"-profile", "nsc05", "-out", dir, "-scale", "Inf"}, "-scale must be a positive finite number (got +Inf)"},
		{[]string{"-profile", "nsc05", "-out", dir, "extra"}, `unexpected argument "extra"`},
		{[]string{"-profiles", "extra"}, `unexpected argument "extra"`},
		{[]string{"-x"}, "-x"},
	} {
		code, out, errOut := mkcorpus(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2 and %q", tc.args, code, out, errOut, tc.msg)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("rejected invocations wrote %d entries under -out (%v)", len(ents), err)
	}
}
