package main

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

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
