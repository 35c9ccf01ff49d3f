package errmodel

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"
)

// goldenSignatures pins every model's exact output on a fixed input and
// seed: an FNV-64a digest of the corrupted buffer.  The netsim channels
// derive their fault patterns from these models, so any change to a
// model's RNG consumption or damage pattern silently reshapes every
// simulated channel — this table makes such a change loud.  To update
// after an intentional change, run the test and copy the printed
// digests.
var goldenSignatures = []struct {
	model Model
	want  string
}{
	{Burst{Bits: 17}, "00e877b87a10a9a8"},
	{SolidBurst{Bits: 32}, "93fbd30b209f8bf2"},
	{BitFlips{K: 5}, "12bd442c205166ee"},
	{Garbage{Bytes: 6}, "2333dd2aec1cd493"},
	{Reorder{Unit: 16}, "3792c33131420d92"},
	{Misinsert{Unit: 16}, "b6273c504f825493"},
}

func TestGoldenSignatures(t *testing.T) {
	data := testData(160)
	for _, g := range goldenSignatures {
		rng := rand.New(rand.NewPCG(0x601D, 0xE44))
		out := damaged(g.model, rng, data)
		h := fnv.New64a()
		h.Write(out)
		got := fmt.Sprintf("%016x", h.Sum64())
		if got != g.want {
			t.Errorf("%s: signature %s, want %s (update goldenSignatures only for an intentional model change)",
				g.model.Name(), got, g.want)
		}
	}
}

// TestBurstFlipDistribution checks the burst-length statistics: the two
// endpoint bits always flip and each of the Bits-2 interior bits flips
// with probability ½, so the mean flip count over many trials must be
// 2 + (Bits-2)/2 within binomial tolerance.
func TestBurstFlipDistribution(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	data := make([]byte, 64)
	for _, bits := range []int{2, 8, 33, 64} {
		const trials = 4000
		total := 0
		for i := 0; i < trials; i++ {
			out := damaged(Burst{Bits: bits}, rng, data)
			for _, b := range out {
				for ; b != 0; b &= b - 1 {
					total++
				}
			}
		}
		mean := float64(total) / trials
		want := 2 + float64(bits-2)/2
		// Binomial sd per trial is sqrt((bits-2))/2; allow 5 sd of the mean.
		tol := 5*math.Sqrt(math.Max(float64(bits-2), 1)/4)/math.Sqrt(trials) + 1e-9
		if math.Abs(mean-want) > tol {
			t.Errorf("Burst{%d}: mean flips %.3f, want %.3f ± %.3f", bits, mean, want, tol)
		}
	}
}

// TestSolidBurstDistribution: the flipped region is always exactly Bits
// contiguous bits, and its start offset covers the full admissible
// range.
func TestSolidBurstDistribution(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	data := make([]byte, 16)
	const bits = 21
	starts := map[int]bool{}
	for i := 0; i < 3000; i++ {
		out := damaged(SolidBurst{Bits: bits}, rng, data)
		first, last, count := -1, -1, 0
		for j := 0; j < len(out)*8; j++ {
			if out[j/8]&(0x80>>uint(j%8)) != 0 {
				if first == -1 {
					first = j
				}
				last = j
				count++
			}
		}
		if count != bits || last-first+1 != bits {
			t.Fatalf("solid burst flipped %d bits spanning %d, want exactly %d contiguous", count, last-first+1, bits)
		}
		starts[first] = true
	}
	if want := len(data)*8 - bits + 1; len(starts) != want {
		t.Errorf("solid burst starts covered %d offsets of %d admissible", len(starts), want)
	}
}

// TestReorderIsAdjacentSwap: the output must be the input with exactly
// one adjacent pair of differing records swapped; a stream of identical
// records must pass unchanged.
func TestReorderIsAdjacentSwap(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	const unit = 16
	data := testData(unit*9 + 5) // trailing partial record must never move
	for i := 0; i < 500; i++ {
		out := damaged(Reorder{Unit: unit}, rng, data)
		if !bytes.Equal(out[unit*9:], data[unit*9:]) {
			t.Fatal("reorder moved trailing partial-record bytes")
		}
		swapped := -1
		for r := 0; r < 8; r++ {
			a, b := data[r*unit:(r+1)*unit], data[(r+1)*unit:(r+2)*unit]
			oa, ob := out[r*unit:(r+1)*unit], out[(r+1)*unit:(r+2)*unit]
			if bytes.Equal(oa, b) && bytes.Equal(ob, a) && !bytes.Equal(a, b) {
				if swapped != -1 {
					t.Fatal("reorder swapped more than one pair")
				}
				swapped = r
				r++ // the pair occupies two record slots
			}
		}
		if swapped == -1 {
			t.Fatal("reorder swapped nothing on a stream of differing records")
		}
	}

	same := bytes.Repeat([]byte{0xAB}, unit*6)
	out := damaged(Reorder{Unit: unit}, rng, same)
	if !bytes.Equal(out, same) {
		t.Error("reorder changed a stream of identical records")
	}
}

// TestMisinsertIsRecordCopy: the output must differ from the input in
// exactly one record, whose new bytes equal some other input record.
func TestMisinsertIsRecordCopy(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	const unit = 16
	data := testData(unit * 8)
	for i := 0; i < 500; i++ {
		out := damaged(Misinsert{Unit: unit}, rng, data)
		changed := -1
		for r := 0; r < 8; r++ {
			if !bytes.Equal(out[r*unit:(r+1)*unit], data[r*unit:(r+1)*unit]) {
				if changed != -1 {
					t.Fatal("misinsert changed more than one record")
				}
				changed = r
			}
		}
		if changed == -1 {
			t.Fatal("misinsert changed nothing on a stream of differing records")
		}
		repl := out[changed*unit : (changed+1)*unit]
		found := false
		for r := 0; r < 8; r++ {
			if r != changed && bytes.Equal(repl, data[r*unit:(r+1)*unit]) {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("misinserted record is not a copy of any other input record")
		}
	}
}

// TestRecordModelsCheckUnit: CorruptRecords runs over records of its
// model's Unit bytes and refuses any other size, as CorruptInPlace
// refuses a Unit below 1.
func TestRecordModelsCheckUnit(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	recs := byteRecords{testData(16 * 8), 16}
	for _, unit := range []int{16, 32, 0} {
		for _, m := range []RecordModel{Reorder{Unit: unit}, Misinsert{Unit: unit}} {
			func() {
				defer func() {
					if panicked := recover() != nil; panicked != (unit != 16) {
						t.Errorf("%s unit %d over 16-byte records: panicked=%v", m.Name(), unit, panicked)
					}
				}()
				m.CorruptRecords(rng, recs)
			}()
		}
	}
}
