package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"realsum/internal/algo"
	"realsum/internal/corpus"
	"realsum/internal/tcpip"
)

// tiny returns a small deterministic corpus for fast tests.
func tiny(seed uint64, ft corpus.FileType, files, size int) *corpus.FS {
	p := corpus.Profile{
		Name:  "tiny",
		Mix:   []corpus.TypeWeight{{Type: ft, Weight: 1}},
		Files: files, MinSize: size, MaxSize: size,
		Seed: seed,
	}
	return p.Build()
}

func ctx() context.Context { return context.Background() }

func TestRunCountsFilesAndPackets(t *testing.T) {
	fs := tiny(1, corpus.UniformRandom, 4, 1024)
	res, err := Run(ctx(), fs, fs.Name, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 4 {
		t.Errorf("Files = %d", res.Files)
	}
	// 1024 bytes at 256/segment = 4 packets per file.
	if res.Packets != 16 {
		t.Errorf("Packets = %d, want 16", res.Packets)
	}
	if res.Bytes != 4096 {
		t.Errorf("Bytes = %d", res.Bytes)
	}
	// 3 adjacent pairs per file.
	if res.Pairs != 12 {
		t.Errorf("Pairs = %d, want 12", res.Pairs)
	}
	if res.Total == 0 || res.Remaining == 0 {
		t.Errorf("no splices inspected: %+v", res.Counts)
	}
}

// twiceWalker yields every file of fs twice, the copy first and under a
// name that sorts after the original, so identical files tie on Missed
// and WorstFiles must break the ties on path, not on walk order.
type twiceWalker struct{ fs *corpus.FS }

func (w twiceWalker) Walk(fn func(string, []byte) error) error {
	return w.fs.Walk(func(path string, data []byte) error {
		if err := fn(path+"~copy", data); err != nil {
			return err
		}
		return fn(path, data)
	})
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name string
		w    corpus.Walker
		opt  Options
	}{
		{"crc", tiny(2, corpus.GmonOut, 6, 2048), Options{CheckCRC: true}},
		{"compress-worst", twiceWalker{tiny(2, corpus.CSource, 6, 4096)}, Options{Compress: true, TrackWorst: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := c.opt
			opt.Workers = 1
			base, err := Run(ctx(), c.w, "x", opt)
			if err != nil {
				t.Fatal(err)
			}
			if base.Files == 0 || base.Total == 0 {
				t.Fatalf("nothing simulated: %+v", base)
			}
			if opt.TrackWorst > 0 {
				if base.Files != 12 || len(base.WorstFiles) != 5 {
					t.Fatalf("Files = %d, WorstFiles = %d; want 12, 5", base.Files, len(base.WorstFiles))
				}
				if base.WorstFiles[0].Missed != base.WorstFiles[1].Missed {
					t.Fatalf("corpus has no tie on Missed at the top: %+v", base.WorstFiles)
				}
			}
			for _, n := range []int{2, 8} {
				opt.Workers = n
				got, err := Run(ctx(), c.w, "x", opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("workers=%d changed results:\n1: %+v\n%d: %+v", n, base, n, got)
				}
			}
		})
	}
}

func TestCollectDeterministicAcrossWorkerCounts(t *testing.T) {
	// The distribution engine's core guarantee: identical merged shards
	// at any worker count.
	fs := tiny(21, corpus.CSource, 8, 4800)
	type snapshot struct {
		blocks  uint64
		pmax    float64
		pairs   uint64
		anyCong uint64
	}
	take := func(workers int) snapshot {
		opt := CollectOptions{Workers: workers}
		g, err := CollectGlobal(ctx(), fs, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		st, err := CollectLocal(ctx(), fs, 2, 1024, opt)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := CollectLocalAnyCells(ctx(), fs, 2, 2048, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{g.Blocks(), g.CongruentProbability(), st.Pairs, ac.Congruent}
	}
	base := take(1)
	for _, w := range []int{2, 8} {
		if got := take(w); got != base {
			t.Errorf("workers=%d changed results: %+v vs %+v", w, got, base)
		}
	}
}

func TestCollectCancellation(t *testing.T) {
	fs := tiny(22, corpus.UniformRandom, 20, 4800)
	c, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectGlobal(c, fs, 1, CollectOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("CollectGlobal err = %v, want context.Canceled", err)
	}
	if _, err := Run(c, fs, "x", Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run err = %v, want context.Canceled", err)
	}
}

func TestProgressCounters(t *testing.T) {
	fs := tiny(23, corpus.UniformRandom, 5, 1024)
	var prog Progress
	_, err := Run(ctx(), fs, "x", Options{Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Files() != 5 || prog.Bytes() != 5*1024 {
		t.Errorf("progress = %d files, %d bytes; want 5 files, 5120 bytes",
			prog.Files(), prog.Bytes())
	}
	if _, err := CollectGlobal(ctx(), fs, 1, CollectOptions{Progress: &prog}); err != nil {
		t.Fatal(err)
	}
	if prog.Files() != 10 {
		t.Errorf("cumulative files = %d, want 10", prog.Files())
	}
}

func TestRunSegmentSizeAffectsPacketCount(t *testing.T) {
	fs := tiny(3, corpus.UniformRandom, 1, 1000)
	res, _ := Run(ctx(), fs, "x", Options{SegmentSize: 100})
	if res.Packets != 10 {
		t.Errorf("Packets = %d, want 10", res.Packets)
	}
}

func TestCompressReducesMissRate(t *testing.T) {
	// Table 7's effect: compression pushes the miss rate toward 2^-16.
	fs := tiny(4, corpus.GmonOut, 10, 8192)
	plain, err := Run(ctx(), fs, "plain", Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(ctx(), fs, "comp", Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := plain.MissRate(plain.MissedByChecksum)
	cr, _ := comp.MissRate(comp.MissedByChecksum)
	if pr == 0 {
		t.Skip("plain corpus produced no misses at this scale")
	}
	if cr >= pr {
		t.Errorf("compression did not reduce miss rate: %.6g -> %.6g", pr, cr)
	}
}

func TestZeroIPHeaderAblationRaisesMisses(t *testing.T) {
	// §6.2: leaving the IP header unfilled raises the miss count by
	// orders of magnitude on zero-heavy data.
	fs := tiny(5, corpus.GmonOut, 8, 8192)
	filled, _ := Run(ctx(), fs, "filled", Options{})
	zeroed, _ := Run(ctx(), fs, "zeroed", Options{Build: tcpip.BuildOptions{ZeroIPHeader: true}})
	if zeroed.MissedByChecksum <= filled.MissedByChecksum {
		t.Errorf("zeroed-header misses (%d) not above filled (%d)",
			zeroed.MissedByChecksum, filled.MissedByChecksum)
	}
}

func TestCollectCellHistogram(t *testing.T) {
	fs := tiny(6, corpus.UniformRandom, 2, 4800)
	for _, name := range []string{"tcp", "f255", "f256"} {
		h, err := CollectCellHistogram(ctx(), fs, algo.MustLookup(name), CollectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// 4800/48 = 100 cells per file, 2 files.
		if h.Total() != 200 {
			t.Errorf("alg %s: total = %d, want 200", name, h.Total())
		}
	}
}

func TestCollectGlobalAndLocal(t *testing.T) {
	fs := tiny(7, corpus.EnglishText, 3, 4800)
	g, err := CollectGlobal(ctx(), fs, 2, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Blocks() != 3*50 {
		t.Errorf("blocks = %d, want 150", g.Blocks())
	}
	st, err := CollectLocal(ctx(), fs, 1, 512, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs == 0 {
		t.Error("no local pairs sampled")
	}
	bh, err := CollectBlockHistogram(ctx(), fs, 2, CollectOptions{})
	if err != nil || bh.Total() != 150 {
		t.Errorf("block histogram: %v, total %d", err, bh.Total())
	}
}

func TestStructuredDataMissesMoreThanUniform(t *testing.T) {
	// The paper's central claim at the system level.
	uni := tiny(8, corpus.UniformRandom, 8, 8192)
	gmon := tiny(9, corpus.GmonOut, 8, 8192)
	u, _ := Run(ctx(), uni, "u", Options{})
	g, _ := Run(ctx(), gmon, "g", Options{})
	ur, _ := u.MissRate(u.MissedByChecksum)
	gr, _ := g.MissRate(g.MissedByChecksum)
	if gr <= ur {
		t.Errorf("structured data miss rate %.6g not above uniform %.6g", gr, ur)
	}
}

func TestFletcherBeatsTCPOnStructuredData(t *testing.T) {
	// Table 8's shape at miniature scale.
	gmon := tiny(10, corpus.GmonOut, 10, 8192)
	tcp, _ := Run(ctx(), gmon, "tcp", Options{})
	f256, _ := Run(ctx(), gmon, "f256", Options{Build: tcpip.BuildOptions{Alg: tcpip.AlgFletcher256}})
	tr, _ := tcp.MissRate(tcp.MissedByChecksum)
	fr, _ := f256.MissRate(f256.MissedByChecksum)
	if tr == 0 {
		t.Skip("no TCP misses at this scale")
	}
	if fr > tr {
		t.Errorf("Fletcher-256 miss rate %.6g above TCP %.6g", fr, tr)
	}
}

type failingWalker struct{}

func (failingWalker) Walk(fn func(string, []byte) error) error {
	fn("one", make([]byte, 512))
	return errTestWalk
}

var errTestWalk = errors.New("walk failed")

func TestRunPropagatesWalkError(t *testing.T) {
	res, err := Run(ctx(), failingWalker{}, "x", Options{})
	if err != errTestWalk {
		t.Fatalf("err = %v", err)
	}
	// The file delivered before the failure is still processed.
	if res.Files != 1 {
		t.Errorf("Files = %d", res.Files)
	}
	if _, err := CollectGlobal(ctx(), failingWalker{}, 1, CollectOptions{}); err != errTestWalk {
		t.Errorf("CollectGlobal err = %v", err)
	}
	if _, err := CollectLocal(ctx(), failingWalker{}, 1, 512, CollectOptions{}); err != errTestWalk {
		t.Errorf("CollectLocal err = %v", err)
	}
	if _, err := CollectLocalAnyCells(ctx(), failingWalker{}, 1, 512, 2, CollectOptions{}); err != errTestWalk {
		t.Errorf("CollectLocalAnyCells err = %v", err)
	}
	if _, err := CollectCellHistogram(ctx(), failingWalker{}, algo.MustLookup("tcp"), CollectOptions{}); err != errTestWalk {
		t.Errorf("CollectCellHistogram err = %v", err)
	}
}

func TestRunTrackWorst(t *testing.T) {
	fs := tiny(20, corpus.GmonOut, 6, 4096)
	res, err := Run(ctx(), fs, "x", Options{TrackWorst: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WorstFiles) == 0 || len(res.WorstFiles) > 3 {
		t.Fatalf("WorstFiles = %d", len(res.WorstFiles))
	}
	for i := 1; i < len(res.WorstFiles); i++ {
		if res.WorstFiles[i].Missed > res.WorstFiles[i-1].Missed {
			t.Fatal("not sorted by misses")
		}
	}
	// Without tracking, nothing is recorded.
	res2, _ := Run(ctx(), fs, "x", Options{})
	if res2.WorstFiles != nil {
		t.Error("WorstFiles recorded without TrackWorst")
	}
}
