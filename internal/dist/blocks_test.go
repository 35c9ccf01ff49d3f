package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"realsum/internal/inet"
	"realsum/internal/onescomp"
)

func randData(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestWindowerCellStreaming(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	data := randData(rng, 48*5+17) // runt tail ignored
	w := NewWindower(1, 5, 0)
	// Stream through Write in awkward chunk sizes to exercise the
	// partial-cell carry.
	for off := 0; off < len(data); {
		n := 1 + rng.IntN(31)
		if off+n > len(data) {
			n = len(data) - off
		}
		w.Write(data[off : off+n])
		off += n
	}
	if w.cells != 5 {
		t.Fatalf("%d cells, want 5", w.cells)
	}
	for i := 0; i < 5; i++ {
		if got, want := w.CellSum(i), inet.Sum(data[i*48:(i+1)*48]); got != want {
			t.Errorf("cell %d: %#04x != %#04x", i, got, want)
		}
	}
}

func TestWindowerMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	data := randData(rng, 48*10)
	n := len(data) / 48
	for k := 1; k <= 5; k++ {
		w := NewWindower(k, k, n)
		w.Write(data)
		if got, want := w.Windows(), n-k+1; got != want {
			t.Fatalf("k=%d: %d windows, want %d", k, got, want)
		}
		for i := 0; i+k <= n; i++ {
			got := w.WindowSum(i)
			want := inet.Sum(data[i*48 : (i+k)*48])
			if !onescomp.Congruent(got, want) {
				t.Fatalf("k=%d i=%d: %#04x != %#04x", k, i, got, want)
			}
		}
	}
}

func TestWindowerReset(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	a, b := randData(rng, 48*6), randData(rng, 48*4)
	w := NewWindower(2, 2, 8)
	w.Write(a)
	w.Reset()
	w.Write(b)
	if w.cells != 4 || w.Windows() != 3 {
		t.Fatalf("after reset: %d cells, %d windows", w.cells, w.Windows())
	}
	for i := 0; i < 3; i++ {
		want := inet.Sum(b[i*48 : (i+2)*48])
		if !onescomp.Congruent(w.WindowSum(i), want) {
			t.Errorf("window %d: %#04x !≡ %#04x", i, w.WindowSum(i), want)
		}
	}
}

// TestLocalSamplerSteadyStateAllocs guards the hot path of the
// distribution engine: streaming a file through a reused LocalSampler
// must not allocate.
func TestLocalSamplerSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	data := randData(rng, 48*64)
	s := NewLocalSampler(2, 512)
	s.File(data) // warm-up
	if n := testing.AllocsPerRun(20, func() { s.File(data) }); n != 0 {
		t.Errorf("LocalSampler.File allocates %v per run, want 0", n)
	}
	g := NewGlobalSampler(2)
	g.AddFile(data) // warm-up: histogram buckets and hash census entries
	if n := testing.AllocsPerRun(20, func() { g.AddFile(data) }); n != 0 {
		t.Errorf("GlobalSampler.AddFile allocates %v per run, want 0", n)
	}
}

func TestGlobalSamplerCounts(t *testing.T) {
	g := NewGlobalSampler(2)
	rng := rand.New(rand.NewPCG(3, 3))
	g.AddFile(randData(rng, 48*9)) // 4 blocks of 2 cells
	g.AddFile(randData(rng, 48*4)) // 2 blocks
	if g.Blocks() != 6 {
		t.Errorf("Blocks = %d, want 6", g.Blocks())
	}
	if g.Histogram().Total() != 6 {
		t.Errorf("histogram total = %d", g.Histogram().Total())
	}
}

func TestGlobalSamplerIdenticalDetection(t *testing.T) {
	g := NewGlobalSampler(1)
	// Two files of identical all-zero cells: every pair identical.
	zero := make([]byte, 48*4)
	g.AddFile(zero)
	if p := g.IdenticalProbability(); math.Abs(p-1) > 1e-12 {
		t.Errorf("identical probability = %v, want 1", p)
	}
	if p := g.CongruentProbability(); math.Abs(p-1) > 1e-12 {
		t.Errorf("congruent probability = %v, want 1", p)
	}
	// Congruent-but-not-identical: cells of all 0x00 vs all 0xFF both
	// sum to zero but differ byte-for-byte.
	g2 := NewGlobalSampler(1)
	mixed := make([]byte, 48*2)
	for i := 48; i < 96; i++ {
		mixed[i] = 0xFF
	}
	g2.AddFile(mixed)
	if p := g2.CongruentProbability(); math.Abs(p-1) > 1e-12 {
		t.Errorf("0x00/0xFF cells should be fully congruent: %v", p)
	}
	if p := g2.IdenticalProbability(); p != 0 {
		t.Errorf("identical probability = %v, want 0", p)
	}
}

func TestGlobalSamplerUniformBaseline(t *testing.T) {
	g := NewGlobalSampler(1)
	rng := rand.New(rand.NewPCG(4, 4))
	for f := 0; f < 40; f++ {
		g.AddFile(randData(rng, 48*600))
	}
	p := g.CongruentProbability()
	want := 1.0 / 65535
	if p < want*0.8 || p > want*1.5 {
		t.Errorf("uniform congruence = %g, want ≈ %g", p, want)
	}
	if g.IdenticalProbability() > 1e-6 {
		t.Errorf("random 48-byte blocks should almost never be identical")
	}
}

// TestGlobalSamplerMerge checks that sharding files across samplers and
// merging reproduces the single-sampler state exactly.
func TestGlobalSamplerMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	files := make([][]byte, 7)
	for i := range files {
		files[i] = randData(rng, 48*(3+rng.IntN(40)))
	}
	for _, k := range []int{1, 2, 4} {
		whole := NewGlobalSampler(k)
		for _, f := range files {
			whole.AddFile(f)
		}
		shards := []*GlobalSampler{NewGlobalSampler(k), NewGlobalSampler(k), NewGlobalSampler(k)}
		for i, f := range files {
			shards[i%3].AddFile(f)
		}
		merged := NewGlobalSampler(k)
		for _, s := range shards {
			merged.Merge(s)
		}
		if merged.Blocks() != whole.Blocks() {
			t.Fatalf("k=%d: merged %d blocks, whole %d", k, merged.Blocks(), whole.Blocks())
		}
		if got, want := merged.CongruentProbability(), whole.CongruentProbability(); got != want {
			t.Errorf("k=%d: congruent %v != %v", k, got, want)
		}
		if got, want := merged.IdenticalProbability(), whole.IdenticalProbability(); got != want {
			t.Errorf("k=%d: identical %v != %v", k, got, want)
		}
		for v := 0; v < 65536; v++ {
			if merged.Histogram().Count(uint16(v)) != whole.Histogram().Count(uint16(v)) {
				t.Fatalf("k=%d: histogram differs at %#04x", k, v)
			}
		}
	}
}

func TestSampleLocalPairCounting(t *testing.T) {
	// 6 cells, k=1, window 512 (≥ 10 cells): pairs = C(6,2) = 15.
	rng := rand.New(rand.NewPCG(5, 5))
	data := randData(rng, 48*6)
	st := SampleLocal(data, 1, 512)
	if st.Pairs != 15 {
		t.Errorf("pairs = %d, want 15", st.Pairs)
	}
	// Window of 96 bytes: only j-i <= 2: pairs = 5+4 = 9.
	st = SampleLocal(data, 1, 96)
	if st.Pairs != 9 {
		t.Errorf("pairs = %d, want 9", st.Pairs)
	}
	// k=2 blocks skip overlaps: i and j >= i+2.
	st = SampleLocal(data, 2, 48*100)
	if st.Pairs != 6 {
		t.Errorf("k=2 pairs = %d, want 6", st.Pairs)
	}
}

func TestSampleLocalDetectsStructure(t *testing.T) {
	// A file of identical cells: all local pairs congruent and identical.
	cell := make([]byte, 48)
	for i := range cell {
		cell[i] = byte(i)
	}
	var data []byte
	for i := 0; i < 8; i++ {
		data = append(data, cell...)
	}
	st := SampleLocal(data, 1, 512)
	if st.Congruent != st.Pairs || st.Identical != st.Pairs {
		t.Errorf("identical-cell file: %+v", st)
	}
	if st.ExcludeIdenticalP() != 0 {
		t.Errorf("ExcludeIdenticalP = %v", st.ExcludeIdenticalP())
	}
	if st.CongruentP() != 1 {
		t.Errorf("CongruentP = %v", st.CongruentP())
	}
}

func TestSampleLocalCongruentNotIdentical(t *testing.T) {
	// Cell A: zeros.  Cell B: 0xFFFF pairs — congruent sums, different
	// bytes.
	data := make([]byte, 96)
	for i := 48; i < 96; i++ {
		data[i] = 0xFF
	}
	st := SampleLocal(data, 1, 512)
	if st.Pairs != 1 || st.Congruent != 1 || st.Identical != 0 {
		t.Errorf("%+v", st)
	}
	if st.ExcludeIdenticalP() != 1 {
		t.Errorf("ExcludeIdenticalP = %v", st.ExcludeIdenticalP())
	}
}

func TestLocalStatsAdd(t *testing.T) {
	a := LocalStats{Pairs: 10, Congruent: 3, Identical: 1}
	a.Add(LocalStats{Pairs: 5, Congruent: 2, Identical: 2})
	if a.Pairs != 15 || a.Congruent != 5 || a.Identical != 3 {
		t.Errorf("%+v", a)
	}
	var empty LocalStats
	if empty.CongruentP() != 0 || empty.ExcludeIdenticalP() != 0 {
		t.Error("empty stats should report 0 probabilities")
	}
}

func TestLocalityEffectOnRealisticData(t *testing.T) {
	// The paper's Table 5 point: local congruence ≥ global congruence
	// on structured data.  Build a file of "sections": each section
	// repeats a small set of cells locally.
	rng := rand.New(rand.NewPCG(6, 6))
	var data []byte
	for sect := 0; sect < 30; sect++ {
		proto := randData(rng, 48)
		for rep := 0; rep < 10; rep++ {
			if rng.IntN(4) == 0 {
				data = append(data, randData(rng, 48)...)
			} else {
				data = append(data, proto...)
			}
		}
	}
	local := SampleLocal(data, 1, 512)
	g := NewGlobalSampler(1)
	g.AddFile(data)
	if local.CongruentP() < g.CongruentProbability() {
		t.Errorf("local congruence %v < global %v on sectioned data",
			local.CongruentP(), g.CongruentProbability())
	}
}

// SampleLocal runs a LocalSampler over one file — the one-shot form the
// appendix tests and small tools use.
func SampleLocal(data []byte, k, window int) LocalStats {
	s := NewLocalSampler(k, window)
	s.File(data)
	return s.Stats()
}
