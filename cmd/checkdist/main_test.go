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

// checkdist runs the command and returns its exit code and output.
func checkdist(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestGolden pins the one-cell histogram summary and the byte census of
// a small Stanford /u1 corpus.  Any drift in corpus generation, the
// global and local samplers or the renderer shows up as a diff.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		flags  []string
	}{
		{"k1.golden", []string{"-k", "1"}},
		{"census.golden", []string{"-census"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			code, out, errOut := checkdist(t, append([]string{"-scale", "0.02"}, tc.flags...)...)
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

// TestEmptyCorpusPrintsDash checks that a corpus with no bytes prints
// "-" for every share and probability it has no base for, instead of
// NaN% or a 0 that reads as measured.
func TestEmptyCorpusPrintsDash(t *testing.T) {
	empty := t.TempDir()
	for _, tc := range []struct {
		flags []string
		want  []string
	}{
		{[]string{"-census"}, []string{
			"zero bytes:   -\n", "0xFF bytes:   -\n", "top byte:     -\n", "entropy:      -\n"}},
		{nil, []string{
			"most common sum:       - (p = -)\n", "top-65 mass:           -\n",
			"global congruence:     - (uniform: 0.00153%)\n", "identical blocks:      -\n",
			"local congruence:      - over 0 pairs (window 512)\n", "local excl. identical: -\n"}},
	} {
		code, out, errOut := checkdist(t, append([]string{"-dir", empty}, tc.flags...)...)
		if code != 0 || errOut != "" {
			t.Fatalf("%q: exit %d, stderr %q", tc.flags, code, errOut)
		}
		for _, line := range tc.want {
			if !strings.Contains(out, line) {
				t.Errorf("%q: output lacks %q:\n%s", tc.flags, line, out)
			}
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%q: output prints NaN:\n%s", tc.flags, out)
		}
	}
}

// TestUsageErrorsExit2 checks that every rejected invocation exits 2
// with a message naming the problem and prints nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-k", "0"}, "-k must be at least 1 (got 0)"},
		{[]string{"-k", "-1"}, "-k must be at least 1 (got -1)"},
		{[]string{"-window", "47"}, "-window 47 is shorter than one 1-cell block (48 bytes)"},
		{[]string{"-k", "2", "-window", "95"}, "-window 95 is shorter than one 2-cell block (96 bytes)"},
		{[]string{"-fig2", "-dir", "."}, "-fig2 runs the paper's fixed configuration; -dir does not apply"},
		{[]string{"-fig3", "-profile", "nsc05"}, "-fig3 runs the paper's fixed configuration; -profile does not apply"},
		{[]string{"-table4", "-k", "2"}, "-table4 runs the paper's fixed configuration; -k does not apply"},
		{[]string{"-table5", "-window", "1024"}, "-table5 runs the paper's fixed configuration; -window does not apply"},
		{[]string{"-fig2", "-census"}, "-census does not apply"},
		{[]string{"-fig2", "-table5"}, "-fig2 and -table5 are separate runs"},
		{[]string{"-census", "-window", "96"}, "-census counts bytes; -window does not apply"},
		{[]string{"-profile", "nosuch"}, `unknown profile "nosuch"`},
		{[]string{"-dir", ".", "-profile", "nsc05"}, "-dir and -profile name two corpora; give one"},
		{[]string{"-dir", ".", "-scale", "9"}, "-scale scales a synthetic profile; it does not apply to -dir"},
		{[]string{"-census", "-dir", ".", "-scale", "9"}, "-scale scales a synthetic profile; it does not apply to -dir"},
		{[]string{"-x"}, "-x"},
		{[]string{"-scale", "-2"}, "-scale must be a positive finite number (got -2)"},
		{[]string{"-scale", "0"}, "-scale must be a positive finite number (got 0)"},
		{[]string{"-fig2", "-scale", "NaN"}, "-scale must be a positive finite number (got NaN)"},
		{[]string{"-census", "-scale", "Inf"}, "-scale must be a positive finite number (got +Inf)"},
		{[]string{"-k", "1", "extra"}, `unexpected argument "extra"`},
	} {
		code, out, errOut := checkdist(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2 and %q", tc.args, code, out, errOut, tc.msg)
		}
	}
}
