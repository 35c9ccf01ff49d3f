package census

import (
	"context"
	"testing"

	"realsum/internal/algo"
	"realsum/internal/crc"
	"realsum/internal/netsim"
)

// splitmix fills test buffers deterministically.
func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
}

func fillBuf(n int, seed uint64) []byte {
	buf := make([]byte, n)
	rng := splitmix(seed)
	for i := 0; i < n; i += 8 {
		v := rng()
		for j := 0; j < 8 && i+j < n; j++ {
			buf[i+j] = byte(v >> (8 * j))
		}
	}
	return buf
}

// TestDifferentialOracle pins every census candidate's table-driven
// path — the generic-width crc.Table the injection lane scores through,
// including the sub-32-bit NR widths the catalog never exercised before
// — byte-for-byte against the bit-at-a-time reference, over lengths
// from 0 to 64Ki at 8 buffer alignments.
func TestDifferentialOracle(t *testing.T) {
	buf := fillBuf(64<<10+64, 0xce6505)
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33,
		63, 64, 65, 255, 256, 257, 1023, 1024, 4095, 4096, 16384, 64 << 10}
	rng := splitmix(0x0dd5)
	for i := 0; i < 8; i++ {
		lengths = append(lengths, int(rng()%uint64(64<<10)))
	}
	for _, c := range Slate() {
		tab := crc.New(c.Params)
		for _, n := range lengths {
			for align := 0; align < 8; align++ {
				data := buf[align : align+n]
				got := tab.Checksum(data)
				want := bitwiseCRC(c.Params, data)
				if got != want {
					t.Fatalf("%s: len=%d align=%d: table %#x != bitwise %#x",
						c.Key, n, align, got, want)
				}
			}
		}
	}
}

// TestSlateShape pins the acceptance-criteria surface: at least 8
// candidates, CRC-32 and CRC-32C present, at least 3 NR generators, no
// duplicate keys, and every Params carries a verified check value.
func TestSlateShape(t *testing.T) {
	slate := Slate()
	if len(slate) < 8 {
		t.Fatalf("slate has %d candidates, want >= 8", len(slate))
	}
	keys := map[string]bool{}
	nr := 0
	for _, c := range slate {
		if keys[c.Key] {
			t.Errorf("duplicate key %q", c.Key)
		}
		keys[c.Key] = true
		if c.NR {
			nr++
		}
		if c.Params.Check == 0 {
			t.Errorf("%s: no pinned check value", c.Key)
		}
		if got := bitwiseCRC(c.Params, []byte("123456789")); got != c.Params.Check {
			t.Errorf("%s: check %#x != pinned %#x", c.Key, got, c.Params.Check)
		}
	}
	if !keys["crc32"] || !keys["crc32c"] {
		t.Error("slate must include crc32 and crc32c")
	}
	if nr < 3 {
		t.Errorf("slate has %d NR generators, want >= 3", nr)
	}
}

// sliceWalker feeds in-memory files, the same shape as netsim's tests.
type sliceWalker struct{ files [][]byte }

func (s sliceWalker) Walk(fn func(string, []byte) error) error {
	for i, f := range s.files {
		if err := fn(string(rune('a'+i)), f); err != nil {
			return err
		}
	}
	return nil
}

// zeroHeavy mimics the corpus hot-spot: long zero runs with sparse
// nonzero bytes — the data shape the paper's measured distributions
// come from.
func zeroHeavy(n int) []byte {
	data := make([]byte, n)
	rng := splitmix(77)
	for i := 0; i < n/50; i++ {
		data[rng()%uint64(n)] = byte(rng())
	}
	return data
}

func censusCorpus() sliceWalker {
	return sliceWalker{files: [][]byte{
		fillBuf(6000, 11), zeroHeavy(8000), fillBuf(3000, 13), zeroHeavy(2000),
	}}
}

// TestCensusWorkersDeterministic is the engine's byte-identity contract
// extended to the census lane: the full report — both lanes, ranks,
// pin lines, inversion verdict — must be byte-identical at workers
// 1, 2 and 8.
func TestCensusWorkersDeterministic(t *testing.T) {
	w := censusCorpus()
	var base string
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(context.Background(), Config{
			Walker: w, Trials: 3, Seed: 42, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report()
		if workers == 1 {
			base = rep
			continue
		}
		if rep != base {
			t.Errorf("census report differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestCensusInjectionScoresEveryCandidate checks the injection lane's
// accounting: every candidate sees the same corrupted population, and
// detected + undetected always equals it.
func TestCensusInjectionScoresEveryCandidate(t *testing.T) {
	res, err := Run(context.Background(), Config{Walker: censusCorpus(), Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Slate()) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(Slate()))
	}
	corrupted := res.Rows[0].Corrupted
	if corrupted == 0 {
		t.Fatal("census battery produced no corrupted deliveries")
	}
	for _, row := range res.Rows {
		if row.Corrupted != corrupted {
			t.Errorf("%s saw %d corrupted, others %d", row.Key, row.Corrupted, corrupted)
		}
		if row.Detected+row.Undetected != row.Corrupted {
			t.Errorf("%s: detected %d + undetected %d != corrupted %d",
				row.Key, row.Detected, row.Undetected, row.Corrupted)
		}
		if row.UniformRank < 1 || row.MeasuredRank < 1 || row.InjectedRank < 1 {
			t.Errorf("%s: unassigned rank", row.Key)
		}
	}
	if res.Mix.Total() != corrupted {
		t.Errorf("error mix classified %d deliveries, corrupted %d", res.Mix.Total(), corrupted)
	}
}

// TestCensusShardZeroAlloc extends the engine's zero-steady-state
// allocation guard to the census lane: a netsim shard configured with
// the census slate (ten generic-width CRC tables on the scoring hot
// path) must not allocate per corpus file once warmed, and the batched
// flush must stay alloc-free too.
func TestCensusShardZeroAlloc(t *testing.T) {
	specs, unknown := netsim.ChannelsByName(Channels())
	if len(unknown) > 0 {
		t.Fatal(unknown)
	}
	cfg := netsim.Config{
		Channels:   specs,
		Placements: []netsim.Placement{netsim.PlaceE2E},
		Algorithms: Algorithms(),
		Trials:     2,
		Seed:       9,
	}
	sh := netsim.NewShard(cfg)
	agg := netsim.NewTally(cfg)
	data := fillBuf(8192, 0xa110c)
	sh.File(0, data) // warm-up: sizes every reusable buffer and sum arena
	if allocs := testing.AllocsPerRun(20, func() { sh.File(0, data) }); allocs != 0 {
		t.Errorf("%v allocs per census file pass, want 0", allocs)
	}
	if err := sh.Flush(agg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { sh.Flush(agg) }); allocs != 0 {
		t.Errorf("%v allocs per census flush, want 0", allocs)
	}
}

// TestRegisterGated pins the registry gating: census-only names resolve
// only after Register/EnsureFor, built-ins are never re-registered, and
// EnsureFor ignores lists without census names (the property the pinned
// default-battery reports rely on).
func TestRegisterGated(t *testing.T) {
	// Order matters: this test observes, then mutates, global registry
	// state; Go runs tests in source order within a file, but keep the
	// observation self-contained anyway.
	EnsureFor([]string{"tcp", "crc32"}) // no census-only name: no-op
	if _, ok := algo.Lookup("crc24a"); ok {
		t.Skip("crc24a already registered by another test binary path")
	}
	EnsureFor([]string{"crc24a"})
	for _, c := range Slate() {
		if _, ok := algo.Lookup(c.Key); !ok {
			t.Errorf("%s not registered after EnsureFor", c.Key)
		}
	}
	Register() // idempotent: must not panic on duplicates
}

// TestScoreRanksAndInversions drives the rank comparison on a
// hand-built tally: a wide candidate that misses everything it is shown
// and a narrow one that catches everything must invert between the
// uniform and injected rankings, and the verdict line must call it out.
func TestScoreRanksAndInversions(t *testing.T) {
	specs, _ := netsim.ChannelsByName(Channels())
	cfg := netsim.Config{
		Channels:   specs,
		Placements: []netsim.Placement{netsim.PlaceE2E},
		Algorithms: Algorithms(),
	}
	tally := netsim.NewTally(cfg)
	ct := &tally.Channels[0]
	ct.Corrupted = 100
	ct.ErrClass.Multi = 100
	p := ct.Placement(netsim.PlaceE2E.String())
	p.Corrupted = 100
	for i := range p.Algos {
		switch p.Algos[i].Name {
		case "crc32k2":
			// The wide candidate misses everything...
			p.Algos[i].Undetected = 100
		default:
			// ...every other candidate catches everything.
			p.Algos[i].Detected = 100
		}
	}
	res := Score(tally)
	var k2, c6 Row
	for _, r := range res.Rows {
		switch r.Key {
		case "crc32k2":
			k2 = r
		case "crc6":
			c6 = r
		}
	}
	if k2.UniformRank >= c6.UniformRank {
		t.Fatalf("uniform lane must prefer the 32-bit candidate: crc32k2 rank %d, crc6 rank %d",
			k2.UniformRank, c6.UniformRank)
	}
	if k2.InjectedRank <= c6.InjectedRank {
		t.Fatalf("injected lane must demote the all-missing candidate: crc32k2 rank %d, crc6 rank %d",
			k2.InjectedRank, c6.InjectedRank)
	}
	if len(res.Inversions) == 0 {
		t.Fatal("uniform-vs-injected flip not reported as an inversion")
	}
	if line := res.inversionLine(); line == "" || line == "census[inversion]: none - the uniform-assumption ranking survived the measured corpus distributions" {
		t.Fatalf("inversion line %q does not call out the flip", line)
	}
}

// TestAnalyzeKnownAlgebra pins the analytic lane's headline facts: the
// CRC-16/CCITT polynomial's x-order (32767), the primitive CRC-11
// having exactly one undetected 2-bit spacing inside 2048 bits, the
// short CRC-6 drowning in them, and the 32-bit generators clean at the
// reference length.
func TestAnalyzeKnownAlgebra(t *testing.T) {
	get := func(key string) Analysis {
		c, ok := ByKey(key)
		if !ok {
			t.Fatalf("no candidate %q", key)
		}
		return Analyze(c.Params)
	}
	if a := get("crc16-xmodem"); a.Ord != 32767 || a.A2 != 0 {
		t.Errorf("crc16-xmodem: ord=%d a2=%d, want ord=32767 a2=0", a.Ord, a.A2)
	}
	if a := get("crc11"); a.Ord != 2047 || a.A2 != 1 {
		t.Errorf("crc11: ord=%d a2=%d, want the primitive order 2047 and exactly 1 pair at 2048 bits", a.Ord, a.A2)
	}
	if a := get("crc6"); a.Ord != 63 || a.A2 == 0 {
		t.Errorf("crc6: ord=%d a2=%d, want ord=63 and a dense A2", a.Ord, a.A2)
	}
	for _, key := range []string{"crc32", "crc32c", "crc32k", "crc32k2"} {
		if a := get(key); a.A2 != 0 {
			t.Errorf("%s: a2=%d at %d bits, want 0", key, a.A2, BlockBits)
		}
	}
	if a := get("crc32c"); !a.OddAll {
		t.Error("crc32c: (x+1)-divisible generator must detect all odd errors")
	}
	if a := get("crc32"); a.OddAll {
		t.Error("crc32: IEEE generator is not (x+1)-divisible")
	}
}

// BenchmarkAnalyze times the analytic lane, reported per slate
// candidate: the order of x up to OrdHorizon, irreducibility and the
// A2/A3 spectra at BlockBits.
func BenchmarkAnalyze(b *testing.B) {
	slate := Slate()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, c := range slate {
			sink += Analyze(c.Params).Ord
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(slate)), "ns/candidate")
	if sink == 0 {
		b.Fatal("no order found for any candidate")
	}
}
