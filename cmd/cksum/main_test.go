package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"realsum/internal/algo"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// inputs are the golden files' contents: empty, one byte, an Ethernet
// MTU, and 70 KiB — seventeen full blocks and a ragged last one.
func inputs() map[string][]byte {
	rng := rand.New(rand.NewPCG(1, 2))
	data := make([]byte, 70<<10)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	return map[string][]byte{
		"empty": nil,
		"one":   data[:1],
		"mtu":   data[:1500],
		"bulk":  data,
	}
}

// cksum runs the command and returns its exit code and output.
func cksum(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestGolden pins every registry algorithm's value over each input, and
// cross-checks the crc32 and adler32 lines against the standard
// library.
func TestGolden(t *testing.T) {
	golden, err := filepath.Abs("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	in := inputs()
	names := []string{"empty", "one", "mtu", "bulk"}
	for _, name := range names {
		if err := os.WriteFile(name, in[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, errOut := cksum(t, "", names...)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
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
	if got, want := strings.Count(out, "\n"), len(names)*len(algo.Names()); got != want {
		t.Errorf("%d lines, want %d (every algorithm for every input)", got, want)
	}
	stdlib := map[string]func([]byte) uint32{"crc32": crc32.ChecksumIEEE, "adler32": adler32.Checksum}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if sum, ok := stdlib[f[0]]; ok {
			if want := fmt.Sprintf("%08x", sum(in[f[3]])); f[1] != want {
				t.Errorf("%s: %s %s, standard library %s", f[3], f[0], f[1], want)
			}
		}
	}
}

// TestBlockBoundaries feeds stdin through readers that return one byte,
// or half of what was asked for, at a time, at sizes around the block
// boundary.  Every algorithm must match its one-shot Sum: a short read
// that left a block boundary at an odd offset would put the TCP sum's
// bytes in the wrong lanes and split Fletcher-32's words.
func TestBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	data := make([]byte, 2*block+1)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	readers := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	}
	for rname, wrap := range readers {
		for _, n := range []int{block - 1, block, block + 1, 2*block + 1} {
			var out, errOut bytes.Buffer
			if code := run(nil, wrap(bytes.NewReader(data[:n])), &out, &errOut); code != 0 {
				t.Fatalf("%s n=%d: exit %d, stderr %q", rname, n, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(lines) != len(algo.All()) {
				t.Fatalf("%s n=%d: %d lines, want one per algorithm", rname, n, len(lines))
			}
			for i, a := range algo.All() {
				want := fmt.Sprintf("%-12s %0*x  %8d  -", a.Name(), (a.Width()+3)/4, algo.Sum(a, data[:n]), n)
				if lines[i] != want {
					t.Errorf("%s n=%d: %q, want %q", rname, n, lines[i], want)
				}
			}
		}
	}
}

func TestStdin(t *testing.T) {
	code, out, _ := cksum(t, "hi\n", "-a", "crc32")
	want := fmt.Sprintf("%-12s %08x  %8d  -\n", "crc32", crc32.ChecksumIEEE([]byte("hi\n")), 3)
	if code != 0 || out != want {
		t.Errorf("exit %d, output %q; want 0, %q", code, out, want)
	}
}

func TestList(t *testing.T) {
	code, out, _ := cksum(t, "", "-a", "list")
	if want := strings.Join(algo.Names(), "\n") + "\n"; code != 0 || out != want {
		t.Errorf("exit %d, output %q; want 0, %q", code, out, want)
	}
}

func TestUnknownAlgorithmExits2(t *testing.T) {
	code, out, errOut := cksum(t, "", "-a", "crc33")
	if code != 2 || out != "" || !strings.Contains(errOut, `unknown algorithm "crc33"`) {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2 naming the algorithm", code, out, errOut)
	}
}

func TestBadFlagExits2(t *testing.T) {
	if code, _, _ := cksum(t, "", "-x"); code != 2 {
		t.Errorf("exit %d for an undefined flag, want 2", code)
	}
}

// TestMissingFileExits1 checks that an unreadable file is reported and
// fails the run without stopping the files after it.
func TestMissingFileExits1(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.WriteFile("present", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := cksum(t, "", "-a", "tcp", "absent", "present")
	if code != 1 || !strings.Contains(errOut, "absent") || !strings.HasSuffix(out, "present\n") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 1, the error, and the present file's line", code, out, errOut)
	}
}
