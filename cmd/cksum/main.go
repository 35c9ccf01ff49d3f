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
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"realsum/internal/algo"
)

func main() {
	algName := flag.String("a", "all", "algorithm name, \"all\", or \"list\"")
	flag.Parse()

	if *algName == "list" {
		fmt.Println(strings.Join(algo.Names(), "\n"))
		return
	}
	var selected []algo.Algorithm
	if *algName == "all" {
		selected = algo.All()
	} else if a, ok := algo.Lookup(*algName); ok {
		selected = []algo.Algorithm{a}
	} else {
		fmt.Fprintf(os.Stderr, "cksum: unknown algorithm %q (known: %s)\n",
			*algName, strings.Join(algo.Names(), ", "))
		os.Exit(2)
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
			fmt.Printf("%-12s %0*x  %8d  %s\n", a.Name(), width, digests[i].Sum64(), n, name)
		}
		return nil
	}

	if flag.NArg() == 0 {
		if err := emit("-", os.Stdin); err != nil {
			fmt.Fprintf(os.Stderr, "cksum: stdin: %v\n", err)
			os.Exit(1)
		}
		return
	}
	exit := 0
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cksum: %v\n", err)
			exit = 1
			continue
		}
		err = emit(path, f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cksum: %s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}
