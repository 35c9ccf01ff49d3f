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

	emit := func(name string, r io.Reader) error {
		// One streaming pass: every selected digest sees the same bytes
		// without the file ever being held in memory.
		digests := make([]algo.Digest, len(selected))
		writers := make([]io.Writer, len(selected))
		for i, a := range selected {
			digests[i] = a.New()
			writers[i] = digests[i]
		}
		n, err := io.Copy(io.MultiWriter(writers...), r)
		if err != nil {
			return err
		}
		for i, a := range selected {
			width := (a.Width() + 3) / 4
			fmt.Fprintf(stdout, "%-12s %0*x  %8d  %s\n", a.Name(), width, digests[i].Sum64(), n, name)
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
