package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runNetsim runs the command and returns its exit code and output.
func runNetsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestDirRun scores the frozen in-repo corpus tree: the run exits 0 and
// prints the pinned shape line of the scenario ci.sh checks.
func TestDirRun(t *testing.T) {
	code, out, errOut := runNetsim(t, "-dir", "../../testdata/netcorpus", "-channels", "drop", "-trials", "2", "-workers", "2")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if want := "shape[tcp/drop]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0\n"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// TestScenarioDirRelativeToFile loads a checked-in scenario whose dir is
// relative to the JSON file, from a working directory other than the
// file's: it must walk the same tree, and so print the same shape and
// placement lines, as the equivalent flags.
func TestScenarioDirRelativeToFile(t *testing.T) {
	pins := func(args ...string) []string {
		t.Helper()
		code, out, errOut := runNetsim(t, args...)
		if code != 0 || errOut != "" {
			t.Fatalf("%q: exit %d, stderr %q", args, code, errOut)
		}
		var lines []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "shape[") || strings.HasPrefix(line, "placement[") {
				lines = append(lines, line)
			}
		}
		if len(lines) == 0 {
			t.Fatalf("%q: no shape or placement lines:\n%s", args, out)
		}
		return lines
	}
	got := pins("-scenario", "../../internal/scenario/testdata/onescomp.json")
	want := pins("-dir", "../../testdata/netcorpus", "-channels", "drop,drop-ge,drop-burst,dup", "-trials", "2", "-workers", "2")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("scenario lines:\n%s\nflag lines:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestUsageErrorsExit2 checks that every rejected invocation exits 2
// with a message naming the problem and prints nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	const dir = "../../testdata/netcorpus"
	dirScale := filepath.Join(t.TempDir(), "dir-scale.json")
	if err := os.WriteFile(dirScale, []byte(`{"dir": "netcorpus", "scale": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-dir", dir, "-profile", "smeg.stanford.edu:/u1", "-scale", "0.01"}, "-dir and -profile name two corpora; give one"},
		{[]string{"-profile", "nsc05", "-dir", dir}, "-dir and -profile name two corpora; give one"},
		{[]string{"-dir", dir, "-scale", "9"}, `scale 9 scales a synthetic profile; it does not apply to dir "../../testdata/netcorpus"`},
		{[]string{"-scenario", "../../internal/scenario/testdata/onescomp.json", "-scale", "2"}, "scale 2 scales a synthetic profile"},
		{[]string{"-scenario", dirScale}, "scale 9 scales a synthetic profile"},
		{[]string{"-channels", "drop,nosuch"}, "nosuch"},
		{[]string{"-scenario", "nosuch.json"}, "nosuch.json"},
		{[]string{"-x"}, "-x"},
	} {
		code, out, errOut := runNetsim(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2 and %q", tc.args, code, out, errOut, tc.msg)
		}
	}
}
