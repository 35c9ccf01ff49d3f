package dist

import (
	"math/rand/v2"
	"testing"
)

func TestSampleLocalAnyCellsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	data := randData(rng, 48*40)
	a := SampleLocalAnyCells(data, 2, 512, 4, 7)
	b := SampleLocalAnyCells(data, 2, 512, 4, 7)
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
	if a.Pairs == 0 {
		t.Error("no pairs sampled")
	}
}

func TestSampleLocalAnyCellsIdenticalCells(t *testing.T) {
	// A file of identical cells: every sampled pair congruent and
	// identical.
	cell := make([]byte, 48)
	for i := range cell {
		cell[i] = byte(i * 5)
	}
	var data []byte
	for i := 0; i < 30; i++ {
		data = append(data, cell...)
	}
	st := SampleLocalAnyCells(data, 2, 512, 4, 3)
	if st.Pairs == 0 || st.Congruent != st.Pairs || st.Identical != st.Pairs {
		t.Errorf("%+v", st)
	}
}

func TestSampleLocalAnyCellsUniformBaseline(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	data := randData(rng, 48*4000)
	st := SampleLocalAnyCells(data, 1, 512, 8, 9)
	// Uniform data: congruence ≈ 1/65535; with ~32k pairs expect ≈0.5
	// hits — allow up to a handful.
	if st.Congruent > 10 {
		t.Errorf("uniform data congruent %d of %d", st.Congruent, st.Pairs)
	}
}

func TestSampleLocalAnyCellsTooSmall(t *testing.T) {
	if st := SampleLocalAnyCells(make([]byte, 48*3), 2, 512, 4, 1); st.Pairs != 0 {
		t.Errorf("undersized input sampled %d pairs", st.Pairs)
	}
	if st := SampleLocalAnyCells(make([]byte, 48*100), 4, 96, 4, 1); st.Pairs != 0 {
		t.Errorf("window smaller than 2k cells sampled %d pairs", st.Pairs)
	}
}

func TestSampleLocalAnyCellsSeesMoreThanContiguous(t *testing.T) {
	// On sectioned data the non-contiguous sampler reaches many more
	// pairs per byte than the contiguous one, which is why the paper
	// used it.
	rng := rand.New(rand.NewPCG(3, 3))
	var data []byte
	proto := randData(rng, 48)
	for i := 0; i < 50; i++ {
		if i%3 == 0 {
			data = append(data, randData(rng, 48)...)
		} else {
			data = append(data, proto...)
		}
	}
	nc := SampleLocalAnyCells(data, 2, 512, 16, 4)
	if nc.Congruent == 0 {
		t.Error("repetitive data should show congruent non-contiguous blocks")
	}
	if nc.Identical == 0 {
		t.Error("repetitive data should show identical non-contiguous blocks")
	}
	if nc.Congruent < nc.Identical {
		t.Error("identical pairs are congruent by definition")
	}
}

// SampleLocalAnyCells runs an AnyCellsSampler over one file — the
// one-shot form the appendix tests and small tools use.  Deterministic
// for a given seed.
func SampleLocalAnyCells(data []byte, k, window, perWindow int, seed uint64) LocalStats {
	s := NewAnyCellsSampler(k, window, perWindow)
	s.File(data, seed)
	return s.Stats()
}
