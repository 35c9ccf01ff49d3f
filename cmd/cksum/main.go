// Command cksum computes the study's checksums and CRCs over files or
// standard input — a cksum(1) built on the library, and a quick way to
// see the algorithms disagree about the same bytes.
//
// Usage:
//
//	cksum [-a <name>|all] [file ...]
//
// The algorithm set comes from the internal/algo registry; run with
// -a list to see the names.  With no files, reads standard input.
// With -a all (the default), prints every algorithm for each input.
//
// Each input streams through the algorithms' fixed-stride composition
// (algo.Stride) in block-byte pieces: every full block's partial is
// folded into the running state and the short last piece is appended
// as the tail, so a file is never held in memory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"realsum/internal/algo"
)

// block is the stride cksum reads and folds by: even, as algo.Stride
// requires.
const block = 4096

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, checksums each named file
// (or stdin when there are none) and returns the exit status — 0 on
// success, 1 if any input could not be read, 2 on a usage error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cksum", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algName := fs.String("a", "all", "algorithm name, \"all\", or \"list\"")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *algName == "list" {
		fmt.Fprintln(stdout, strings.Join(algo.Names(), "\n"))
		return 0
	}
	var selected []algo.Algorithm
	if *algName == "all" {
		selected = algo.All()
	} else if a, ok := algo.Lookup(*algName); ok {
		selected = []algo.Algorithm{a}
	} else {
		fmt.Fprintf(stderr, "cksum: unknown algorithm %q (known: %s)\n",
			*algName, strings.Join(algo.Names(), ", "))
		return 2
	}

	strides := make([]algo.Stride, len(selected))
	for i, a := range selected {
		strides[i] = a.Stride(block)
	}
	buf := make([]byte, block)
	states := make([]uint64, len(selected))
	var part [1]uint64
	emit := func(name string, r io.Reader) error {
		for i, s := range strides {
			states[i] = s.Start()
		}
		var total int64
		for {
			// ReadFull keeps every block boundary at a multiple of block
			// bytes, however the reader splits its input.
			n, err := io.ReadFull(r, buf)
			total += int64(n)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				for i, s := range strides {
					states[i] = s.Tail(states[i], buf[:n])
				}
				break
			}
			if err != nil {
				return err
			}
			for i, s := range strides {
				part[0] = s.Partial(buf)
				states[i] = s.Fold(states[i], part[:])
			}
		}
		for i, a := range selected {
			width := (a.Width() + 3) / 4
			fmt.Fprintf(stdout, "%-12s %0*x  %8d  %s\n", a.Name(), width, strides[i].Sum(states[i]), total, name)
		}
		return nil
	}

	if fs.NArg() == 0 {
		if err := emit("-", stdin); err != nil {
			fmt.Fprintf(stderr, "cksum: stdin: %v\n", err)
			return 1
		}
		return 0
	}
	exit := 0
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "cksum: %v\n", err)
			exit = 1
			continue
		}
		err = emit(path, f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "cksum: %s: %v\n", path, err)
			exit = 1
		}
	}
	return exit
}
