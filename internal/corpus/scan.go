package corpus

import (
	"bytes"
	"compress/lzw"
	"io/fs"
	"os"
	"path/filepath"
)

// ScanDir walks a real directory tree and invokes fn for every regular
// file, in lexical order, mirroring FS.Walk — so the whole experiment
// harness can be pointed at an actual file system instead of a synthetic
// profile, exactly as the paper's test program was.
func ScanDir(root string, fn func(path string, data []byte) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return fn(path, data)
	})
}

// Compress applies LZW compression (the algorithm of Unix compress, as
// used for the paper's Table 7 experiment) to data.
func Compress(data []byte) []byte {
	var b bytes.Buffer
	w := lzw.NewWriter(&b, lzw.LSB, 8)
	w.Write(data)
	w.Close()
	return b.Bytes()
}

// Walker is the file-source interface the simulator consumes: synthetic
// file systems and real directory trees both satisfy it.
type Walker interface {
	Walk(fn func(path string, data []byte) error) error
}

// DirWalker adapts ScanDir to the Walker interface.
type DirWalker string

// Walk implements Walker.
func (d DirWalker) Walk(fn func(path string, data []byte) error) error {
	return ScanDir(string(d), fn)
}
