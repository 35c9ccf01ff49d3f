package corpus

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// errStop is the callback error FuzzScanDir uses to cut a walk short.
var errStop = errors.New("stop")

// FuzzScanDir builds a directory tree from a byte program — nested
// directories, empty and non-empty files, symlinks to files, to
// directories, to ancestors (a loop) and to nothing, and entries made
// unreadable — then walks it with ScanDir and DirWalker.  A walk must
// either be clean, visiting every regular file exactly once with its
// contents and no symlink, or fail with a named error: the callback's
// own error, or a *fs.PathError for a permission the tree withheld.  It
// must never panic.
func FuzzScanDir(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 0, 3, 1})
	f.Add([]byte{1, 0, 0, 1, 2, 5, 3, 0, 3, 2, 4, 1, 5, 0})
	f.Add([]byte{0, 1, 1, 2, 4, 0, 4, 2, 2, 7, 6, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		root := t.TempDir()
		dirs := []string{root}
		var entries []string // every path created, in creation order
		want := map[string][]byte{}
		var locked []string
		t.Cleanup(func() {
			for _, p := range locked {
				os.Chmod(p, 0o755)
			}
		})
		stopAt := -1
		for i := 0; i+1 < len(prog) && i < 2*40; i += 2 {
			op, arg := prog[i]%7, int(prog[i+1])
			dir := dirs[arg%len(dirs)]
			name := filepath.Join(dir, fmt.Sprintf("e%02d", i/2))
			switch op {
			case 0: // directory
				if os.Mkdir(name, 0o755) == nil {
					dirs = append(dirs, name)
					entries = append(entries, name)
				}
			case 1, 2: // file: op 1 empty, op 2 holds arg bytes
				data := bytes.Repeat([]byte{byte(arg)}, arg*int(op-1))
				if os.WriteFile(name, data, 0o644) == nil {
					want[name] = data
					entries = append(entries, name)
				}
			case 3: // symlink to an earlier entry, directory or file
				if len(entries) > 0 && os.Symlink(entries[arg%len(entries)], name) == nil {
					entries = append(entries, name)
				}
			case 4: // symlink to an ancestor directory: a loop if followed
				if os.Symlink(dirs[arg%len(dirs)], name) == nil {
					entries = append(entries, name)
				}
			case 5: // dangling symlink
				if os.Symlink(filepath.Join(root, "missing"), name) == nil {
					entries = append(entries, name)
				}
			case 6: // withhold read permission on an earlier entry
				if len(entries) > 0 {
					p := entries[arg%len(entries)]
					if fi, err := os.Lstat(p); err == nil && fi.Mode()&fs.ModeSymlink == 0 && os.Chmod(p, 0) == nil {
						locked = append(locked, p)
					}
				}
			}
		}
		if len(prog)%2 == 1 {
			stopAt = int(prog[len(prog)-1]) % (len(want) + 1)
		}

		seen := map[string]int{}
		err := ScanDir(root, func(path string, data []byte) error {
			if stopAt == len(seen) {
				return errStop
			}
			seen[path]++
			fi, lerr := os.Lstat(path)
			if lerr != nil || !fi.Mode().IsRegular() {
				t.Errorf("visited %s, which is not a regular file (%v)", path, lerr)
			}
			if w, ok := want[path]; !ok || !bytes.Equal(w, data) {
				t.Errorf("visited %s with %d bytes, want a created file with %d", path, len(data), len(w))
			}
			return nil
		})
		var pe *fs.PathError
		switch {
		case err == nil:
			if stopAt >= 0 && stopAt < len(want) {
				t.Fatalf("walk ignored the callback's stop after %d files", stopAt)
			}
			for path := range want {
				if seen[path] != 1 {
					t.Errorf("clean walk visited %s %d times", path, seen[path])
				}
			}
		case errors.Is(err, errStop):
			if len(seen) != stopAt {
				t.Errorf("callback stop after %d files returned after %d", stopAt, len(seen))
			}
		case errors.As(err, &pe) && errors.Is(err, fs.ErrPermission):
			if len(locked) == 0 {
				t.Errorf("permission error %v from a tree with nothing locked", err)
			}
		default:
			t.Fatalf("walk failed with %T %v, want a clean walk or a named error", err, err)
		}

		// DirWalker is ScanDir behind the Walker interface: same outcome.
		n := 0
		derr := DirWalker(root).Walk(func(string, []byte) error {
			if stopAt == n {
				return errStop
			}
			n++
			return nil
		})
		if (derr == nil) != (err == nil) || n != len(seen) {
			t.Errorf("DirWalker: %d files, err %v; ScanDir: %d files, err %v", n, derr, len(seen), err)
		}
	})
}
