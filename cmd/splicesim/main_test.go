package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// splicesim runs the command and returns its exit code and output.
func splicesim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestGolden pins the Tables 1–3-style report of a small Stanford /u1
// corpus under the default TCP header checksum and under Fletcher-255
// in the trailer.  Any drift in corpus generation, packetization, the
// splice walk or the table renderer shows up as a diff.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		flags  []string
	}{
		{"smeg.golden", nil},
		{"smeg-f255-trailer.golden", []string{"-alg", "f255", "-placement", "trailer"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			args := append([]string{"-profile", "smeg.stanford.edu:/u1", "-scale", "0.02", "-workers", "2"}, tc.flags...)
			code, out, errOut := splicesim(t, args...)
			if code != 0 || errOut != "" {
				t.Fatalf("exit %d, stderr %q", code, errOut)
			}
			golden := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("output differs from %s (rerun with -update after a deliberate change):\n%s", golden, out)
			}
		})
	}
}

// TestUsageErrorsExit2 checks that every rejected invocation exits 2
// with a message naming the problem and prints nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-profile", "nsc05", "-alg", "crc33"}, `unknown -alg "crc33"`},
		{[]string{"-profile", "nsc05", "-placement", "middle"}, `unknown -placement "middle"`},
		{[]string{"-profile", "nosuch"}, `unknown profile "nosuch"`},
		{nil, "one of -profile or -dir is required"},
		{[]string{"-dir", ".", "-profile", "nsc05"}, "-dir and -profile name two corpora; give one"},
		{[]string{"-dir", ".", "-scale", "9"}, "-scale scales a synthetic profile; it does not apply to -dir"},
		{[]string{"-x"}, "-x"},
	} {
		code, out, errOut := splicesim(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2 and %q", tc.args, code, out, errOut, tc.msg)
		}
	}
}
