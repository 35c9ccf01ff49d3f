package census

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realsum/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/pins.golden from the current output")

// TestCensusPinsGolden pins the report's census[...] lines for the run
// `paper -census -scale 0.02` makes at seed 0: the Stanford /u1 corpus
// at scale 0.02 and the netsim default trial count.  Any drift in the
// gf2poly order and spectrum math, the generic-width CRC tables, the
// error-class mix or the injection seed chain shows up as a diff.
// Rerun with -update only after a deliberate change to the report.
func TestCensusPinsGolden(t *testing.T) {
	res, err := Run(context.Background(), Config{Walker: corpus.StanfordU1().Scale(0.02).Build()})
	if err != nil {
		t.Fatal(err)
	}
	var pins strings.Builder
	for _, line := range strings.Split(res.Report(), "\n") {
		if strings.HasPrefix(line, "census[") {
			pins.WriteString(line + "\n")
		}
	}
	golden := filepath.Join("testdata", "pins.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(pins.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := pins.String(); got != string(want) {
		t.Errorf("census pin lines differ from %s (rerun with -update after a deliberate change):\n%s", golden, got)
	}
}
