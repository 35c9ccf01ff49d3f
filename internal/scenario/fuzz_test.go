package scenario

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the scenario decoder cksumd and
// the batch CLIs share: every input must decode to a Scenario or fail
// with an error, and a decoded Scenario must pass Validate and build a
// Config.
func FuzzParse(f *testing.F) {
	profiles, err := filepath.Glob("testdata/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range profiles {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Parse accepted a scenario Validate rejects: %v", err)
		}
		if _, err := sc.Config(); err != nil {
			t.Fatalf("Config rejected a validated scenario: %v", err)
		}
	})
}

// FuzzConnWalker feeds arbitrary bytes to the cksumd wire decoder.  A
// walk must end cleanly (at EOF or a zero frame) or with an error that
// names the frame it failed on; every yielded frame stays within
// MaxFrame, and re-framing the yielded frames reproduces the input's
// prefix byte for byte.  Its seeds live in testdata/fuzz/FuzzConnWalker.
func FuzzConnWalker(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var framed []byte
		frames := 0
		err := connWalker{r: bufio.NewReader(bytes.NewReader(data))}.Walk(func(path string, b []byte) error {
			if want := fmt.Sprintf("wire/%d", frames); path != want {
				t.Fatalf("frame path %q, want %q", path, want)
			}
			if len(b) > MaxFrame {
				t.Fatalf("frame %d: %d bytes exceeds MaxFrame", frames, len(b))
			}
			frames++
			framed = binary.BigEndian.AppendUint32(framed, uint32(len(b)))
			framed = append(framed, b...)
			return nil
		})
		if !bytes.HasPrefix(data, framed) {
			t.Fatalf("the %d yielded frames do not reproduce the input prefix", frames)
		}
		if err != nil {
			if prefix := fmt.Sprintf("frame %d", frames); !strings.HasPrefix(err.Error(), prefix+" ") && !strings.HasPrefix(err.Error(), prefix+":") {
				t.Fatalf("error %q does not name frame %d", err, frames)
			}
			return
		}
		if rest := data[len(framed):]; len(rest) > 0 && (len(rest) < 4 || binary.BigEndian.Uint32(rest) != 0) {
			t.Fatalf("walk ended cleanly with %d unframed bytes and no zero frame", len(rest))
		}
	})
}
