// Command mkcorpus materializes a synthetic file system onto disk so
// the generated corpora can be inspected or fed to external tools.
//
// Usage:
//
//	mkcorpus -profile smeg.stanford.edu:/u1 -out /tmp/u1 [-scale 1.0]
//	mkcorpus -profiles
//
// A missing -profile or -out, an unknown profile, a -scale that is not
// a positive finite number and any positional argument are usage
// errors (exit 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"realsum/internal/corpus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the profile's files
// under -out and prints a summary line, returning the exit status — 0
// on success, 1 if writing fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mkcorpus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profile := fs.String("profile", "", "synthetic site profile name")
	out := fs.String("out", "", "output directory")
	scale := fs.Float64("scale", 1.0, "profile scale factor")
	listProfiles := fs.Bool("profiles", false, "list known profiles and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "mkcorpus: "+format+"\n", args...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q (every input is a flag)", fs.Arg(0))
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return usage("-scale must be a positive finite number (got %v)", *scale)
	}

	if *listProfiles {
		for _, p := range corpus.AllProfiles() {
			fmt.Fprintln(stdout, p.Name)
		}
		return 0
	}
	if *profile == "" || *out == "" {
		return usage("-profile and -out are required")
	}
	p, ok := corpus.ByName(*profile)
	if !ok {
		return usage("unknown profile %q (try -profiles)", *profile)
	}
	fsys := p.Scale(*scale).Build()
	var files int
	var bytes int64
	err := fsys.Walk(func(path string, data []byte) error {
		full := filepath.Join(*out, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			return err
		}
		files++
		bytes += int64(len(data))
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "mkcorpus: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d files (%d bytes) under %s\n", files, bytes, *out)
	return 0
}
