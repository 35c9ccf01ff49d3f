package main

import (
	"bytes"
	"context"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// paper runs the command and returns its exit code and output.
func paper(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestDistGolden pins the distribution passes at scale 0.05: Figure 2
// (with its predict2 series, the single-cell PMF convolved with
// itself), Table 4 and Table 6, whose Predicted columns are powers of
// the single-cell PMF.  Any drift in the convolution, the corpus walks
// or the renderers shows up as a diff.  Only stdout is compared: stderr
// carries wall-clock timings.
func TestDistGolden(t *testing.T) {
	code, out, errOut := paper(t, "-run", "figure2,table4,table6", "-scale", "0.05", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	golden := filepath.Join("testdata", "dist.golden")
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
}

// TestUsageErrorsExit2 checks that every rejected invocation exits 2
// with a message naming the problem and prints nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-run", "tabel1"}, `unknown experiment "tabel1"`},
		{[]string{"-run", "table1,figure9", "-scale", "0.01"}, `unknown experiment "figure9"`},
		{[]string{"-x"}, "-x"},
	} {
		code, out, errOut := paper(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2 and %q", tc.args, code, out, errOut, tc.msg)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		name       string
		run        string
		netsimOnly bool
		want       []string // nil means every experiment
		unknown    []string // quoted names the error must carry
	}{
		{name: "default runs all", run: ""},
		{name: "single", run: "table1", want: []string{"table1"}},
		{name: "list", run: "table7,figure2,netsim", want: []string{"table7", "figure2", "netsim"}},
		{name: "case and spaces", run: " Table1 , FIGURE3", want: []string{"table1", "figure3"}},
		{name: "netsim shorthand", netsimOnly: true, want: []string{"netsim"}},
		{name: "netsim overrides run", run: "table1", netsimOnly: true, want: []string{"netsim"}},
		{name: "unknown", run: "tabel1", unknown: []string{`"tabel1"`}},
		{name: "unknown among known", run: "table1,tabel2,figure9", unknown: []string{`"tabel2"`, `"figure9"`}},
		{name: "empty entry", run: "table1,", unknown: []string{`""`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectExperiments(tc.run, tc.netsimOnly)
			if tc.unknown != nil {
				if err == nil {
					t.Fatalf("selectExperiments(%q) = %v, want an error", tc.run, got)
				}
				for _, u := range tc.unknown {
					if !strings.Contains(err.Error(), u) {
						t.Errorf("error %q does not name %s", err, u)
					}
				}
				if !strings.Contains(err.Error(), strings.Join(experimentNames, ", ")) {
					t.Errorf("error %q does not list the known experiments", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if want == nil {
				want = experimentNames
			}
			names := slices.Sorted(maps.Keys(got))
			want = slices.Sorted(slices.Values(want))
			if !slices.Equal(names, want) {
				t.Errorf("selected %v, want %v", names, want)
			}
		})
	}
}
