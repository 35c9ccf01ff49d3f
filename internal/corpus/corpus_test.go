package corpus

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for ft := FileType(0); int(ft) < numFileTypes; ft++ {
		s := FileSpec{Path: "x", Type: ft, Size: 4096, seed: 42}
		a, b := s.Generate(), s.Generate()
		if !bytes.Equal(a, b) {
			t.Errorf("%v: Generate is not deterministic", ft)
		}
		if len(a) != 4096 {
			t.Errorf("%v: generated %d bytes, want 4096", ft, len(a))
		}
	}
}

func TestGenerateDiffersAcrossSeeds(t *testing.T) {
	for ft := FileType(0); int(ft) < numFileTypes; ft++ {
		a := FileSpec{Type: ft, Size: 4096, seed: 1}.Generate()
		b := FileSpec{Type: ft, Size: 4096, seed: 2}.Generate()
		if bytes.Equal(a, b) {
			t.Errorf("%v: different seeds produced identical files", ft)
		}
	}
}

func byteHistogram(data []byte) [256]int {
	var h [256]int
	for _, b := range data {
		h[b]++
	}
	return h
}

func TestEnglishTextLooksLikeEnglish(t *testing.T) {
	data := FileSpec{Type: EnglishText, Size: 64 * 1024, seed: 7}.Generate()
	h := byteHistogram(data)
	for b := 0x80; b < 0x100; b++ {
		if h[b] != 0 {
			t.Fatalf("non-ASCII byte %#02x in English text", b)
		}
	}
	if h['e'] < h['z']*5 {
		t.Error("letter frequencies not English-like: e should dwarf z")
	}
	if h[' '] == 0 || h['\n'] == 0 {
		t.Error("no spaces or newlines")
	}
}

func TestExecutableIsZeroHeavy(t *testing.T) {
	data := FileSpec{Type: Executable, Size: 64 * 1024, seed: 7}.Generate()
	h := byteHistogram(data)
	if float64(h[0])/float64(len(data)) < 0.15 {
		t.Errorf("executable only %.1f%% zero bytes; real binaries are zero-heavy",
			100*float64(h[0])/float64(len(data)))
	}
	if !bytes.HasPrefix(data, []byte{0x7F, 'E', 'L', 'F'}) {
		t.Error("missing ELF magic")
	}
}

func TestPBMIsPureBlackAndWhite(t *testing.T) {
	data := FileSpec{Type: PBMImage, Size: 32 * 1024, seed: 9}.Generate()
	// Skip the ASCII header (ends at the third newline).
	nl := 0
	start := 0
	for i, b := range data {
		if b == '\n' {
			nl++
			if nl == 3 {
				start = i + 1
				break
			}
		}
	}
	for i := start; i < len(data); i++ {
		if data[i] != 0x00 && data[i] != 0xFF {
			t.Fatalf("PBM body byte %#02x at %d; §5.5 requires pure 0/255", data[i], i)
		}
	}
}

func TestPSHexBitmapStructure(t *testing.T) {
	data := FileSpec{Type: PSHexBitmap, Size: 32 * 1024, seed: 11}.Generate()
	if !bytes.HasPrefix(data, []byte("%!PS-Adobe")) {
		t.Error("missing PostScript header")
	}
	// Body lines must be hex digits; many lines must repeat exactly.
	lines := bytes.Split(data, []byte{'\n'})
	seen := map[string]int{}
	body := 0
	for _, l := range lines[4:] {
		if len(l) == 0 {
			continue
		}
		body++
		seen[string(l)]++
	}
	if body == 0 {
		t.Fatal("no body lines")
	}
	max := 0
	for _, c := range seen {
		if c > max {
			max = c
		}
	}
	if max < body/10 {
		t.Errorf("most common line occurs %d/%d times; font bitmaps repeat far more", max, body)
	}
}

func TestGmonOutMostlyZero(t *testing.T) {
	data := FileSpec{Type: GmonOut, Size: 32 * 1024, seed: 13}.Generate()
	h := byteHistogram(data)
	if float64(h[0])/float64(len(data)) < 0.9 {
		t.Errorf("gmon.out only %.1f%% zeros", 100*float64(h[0])/float64(len(data)))
	}
}

func TestWordProcessorRuns(t *testing.T) {
	data := FileSpec{Type: WordProcessor, Size: 32 * 1024, seed: 15}.Generate()
	// Must contain a run of ≥150 zero bytes followed eventually by a run
	// of ≥150 0xFF bytes.
	longRun := func(v byte) bool {
		run := 0
		for _, b := range data {
			if b == v {
				run++
				if run >= 150 {
					return true
				}
			} else {
				run = 0
			}
		}
		return false
	}
	if !longRun(0x00) || !longRun(0xFF) {
		t.Error("word-processor file lacks the §5.5 0x00/0xFF runs")
	}
}

func TestCompressedIsNearUniform(t *testing.T) {
	data := FileSpec{Type: Compressed, Size: 64 * 1024, seed: 17}.Generate()
	h := byteHistogram(data[3:]) // skip magic
	// Entropy proxy: no byte should be wildly over-represented.
	max := 0
	for _, c := range h {
		if c > max {
			max = c
		}
	}
	exp := float64(len(data)-3) / 256
	if float64(max) > 4*exp {
		t.Errorf("compressed data skewed: max bucket %d vs expected %.0f", max, exp)
	}
}

func TestUniformRandomIsUniform(t *testing.T) {
	data := FileSpec{Type: UniformRandom, Size: 256 * 1024, seed: 19}.Generate()
	h := byteHistogram(data)
	exp := float64(len(data)) / 256
	var chi2 float64
	for _, c := range h {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	if chi2 > 2*256 {
		t.Errorf("uniform generator chi2 = %.0f over 255 df", chi2)
	}
}

func TestProfileBuildDeterministic(t *testing.T) {
	a, b := StanfordU1().Build(), StanfordU1().Build()
	if len(a.Specs) != len(b.Specs) {
		t.Fatal("nondeterministic spec count")
	}
	for i := range a.Specs {
		if a.Specs[i] != b.Specs[i] {
			t.Fatalf("spec %d differs: %+v vs %+v", i, a.Specs[i], b.Specs[i])
		}
	}
	if !bytes.Equal(a.Specs[0].Generate(), b.Specs[0].Generate()) {
		t.Error("file contents differ across identical builds")
	}
}

func TestProfileMixtureRespected(t *testing.T) {
	fs := PathologicalPBM().Build()
	for _, s := range fs.Specs {
		if s.Type != PBMImage {
			t.Fatalf("pure-PBM profile produced %v", s.Type)
		}
	}
}

func TestProfileScale(t *testing.T) {
	p := StanfordU1()
	if got := p.Scale(2).Files; got != 2*p.Files {
		t.Errorf("Scale(2) files = %d", got)
	}
	if got := p.Scale(0.0001).Files; got != 1 {
		t.Errorf("Scale(tiny) files = %d, want 1", got)
	}
}

func TestAllProfilesBuildAndWalk(t *testing.T) {
	for _, p := range AllProfiles() {
		fs := p.Scale(0.05).Build()
		if fs.Name != p.Name {
			t.Errorf("name mismatch: %q vs %q", fs.Name, p.Name)
		}
		files := 0
		var bytesSeen int64
		err := fs.Walk(func(path string, data []byte) error {
			files++
			bytesSeen += int64(len(data))
			if len(data) == 0 {
				t.Errorf("%s: empty file %s", p.Name, path)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: walk: %v", p.Name, err)
		}
		if files != len(fs.Specs) {
			t.Errorf("%s: walked %d files, want %d", p.Name, files, len(fs.Specs))
		}
		if bytesSeen != fs.TotalBytes() {
			t.Errorf("%s: TotalBytes %d != walked %d", p.Name, fs.TotalBytes(), bytesSeen)
		}
	}
}

func TestByName(t *testing.T) {
	if p, ok := ByName("sics.se:/opt"); !ok || p.Name != "sics.se:/opt" {
		t.Error("ByName(sics.se:/opt) failed")
	}
	if _, ok := ByName("no-such-system"); ok {
		t.Error("ByName should miss unknown systems")
	}
}

func TestLogUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 1000; i++ {
		n := logUniform(rng, 100, 10000)
		if n < 100 || n > 10000 {
			t.Fatalf("logUniform out of bounds: %d", n)
		}
	}
	if logUniform(rng, 50, 50) != 50 {
		t.Error("degenerate range")
	}
}

func TestCompressShrinksText(t *testing.T) {
	text := FileSpec{Type: EnglishText, Size: 32 * 1024, seed: 21}.Generate()
	z := Compress(text)
	if len(z) >= len(text) {
		t.Errorf("LZW did not compress English text: %d -> %d", len(text), len(z))
	}
}

func TestScanDir(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a.txt"), []byte("hello"), 0o644)
	os.MkdirAll(filepath.Join(dir, "sub"), 0o755)
	os.WriteFile(filepath.Join(dir, "sub", "b.bin"), []byte{1, 2, 3}, 0o644)
	var paths []string
	var total int
	err := ScanDir(dir, func(path string, data []byte) error {
		paths = append(paths, path)
		total += len(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || total != 8 {
		t.Errorf("scanned %v (%d bytes)", paths, total)
	}
	var dw Walker = DirWalker(dir)
	n := 0
	dw.Walk(func(string, []byte) error { n++; return nil })
	if n != 2 {
		t.Errorf("DirWalker visited %d files", n)
	}
}

func TestFileTypeStrings(t *testing.T) {
	if EnglishText.String() != "text" || UniformRandom.String() != "random" {
		t.Error("FileType strings")
	}
	if FileType(99).String() == "" {
		t.Error("out-of-range FileType should still render")
	}
}

func TestTarArchiveStructure(t *testing.T) {
	data := FileSpec{Type: TarArchive, Size: 48 * 1024, seed: 23}.Generate()
	if !bytes.Contains(data[:512], []byte("ustar")) {
		t.Error("first block lacks ustar magic")
	}
	// The USTAR header checksum of the first block must validate.
	hdr := data[:512]
	sum := 0
	for i, b := range hdr {
		if i >= 148 && i < 156 {
			sum += ' '
		} else {
			sum += int(b)
		}
	}
	var stored int
	fmt.Sscanf(string(hdr[148:155]), "%o", &stored)
	if stored != sum {
		t.Errorf("tar header checksum %o != computed %o", stored, sum)
	}
}

func TestMailSpoolStructure(t *testing.T) {
	data := FileSpec{Type: MailSpool, Size: 32 * 1024, seed: 25}.Generate()
	if !bytes.HasPrefix(data, []byte("From ")) {
		t.Error("mbox must start with a From_ line")
	}
	if n := bytes.Count(data, []byte("\nMessage-Id:")); n < 2 {
		t.Errorf("only %d messages in 32 KiB spool", n+1)
	}
}

func TestCoreDumpZeroHeavy(t *testing.T) {
	data := FileSpec{Type: CoreDump, Size: 64 * 1024, seed: 27}.Generate()
	h := byteHistogram(data)
	if frac := float64(h[0]) / float64(len(data)); frac < 0.3 {
		t.Errorf("core dump only %.1f%% zeros", 100*frac)
	}
}

func TestAllFileTypesAndNewFileSpec(t *testing.T) {
	types := AllFileTypes()
	if len(types) != numFileTypes {
		t.Fatalf("AllFileTypes returned %d of %d", len(types), numFileTypes)
	}
	for _, ft := range types {
		s := NewFileSpec(ft, 2048, 99)
		data := s.Generate()
		if len(data) != 2048 {
			t.Errorf("%v: generated %d bytes", ft, len(data))
		}
	}
}
