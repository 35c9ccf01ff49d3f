// Package sim drives the paper's experiments end to end: it simulates
// FTP transfers of every file in a corpus as 256-byte TCP/IP segments
// over AAL5 (§3.2), enumerates every packet splice of each adjacent
// segment pair, and aggregates the classification counts that form
// Tables 1–3 and 7–10.  It also hosts the distribution-collection
// passes behind Figures 2–3 and Tables 4–6.
package sim

import (
	"context"
	"sync"

	"realsum/internal/corpus"
	"realsum/internal/splice"
	"realsum/internal/tcpip"
)

// DefaultSegmentSize is the paper's TCP segment payload size: "The TCP
// segment sizes examined were 256 bytes long, except for runt packets
// at the end of files."
const DefaultSegmentSize = 256

// Options configures one simulation run.
type Options struct {
	// Build carries the packet-construction knobs (checksum algorithm,
	// placement, inversion, IP-header fill).
	Build tcpip.BuildOptions
	// SegmentSize is the TCP payload size per packet (default 256).
	SegmentSize int
	// CheckCRC enables the AAL5 CRC test on every splice.
	CheckCRC bool
	// Compress applies LZW to every file before packetization (§5.1).
	Compress bool
	// Workers bounds parallelism across files (default GOMAXPROCS).
	Workers int
	// TrackWorst, when positive, records the TrackWorst files with the
	// most checksum misses — §5.5's observation that undetected-splice
	// rates spike "at the level of individual directories or even
	// files" depends on exactly this attribution.
	TrackWorst int
	// Progress, when non-nil, receives per-file throughput updates.
	Progress *Progress
}

// FileMisses attributes splice-simulation outcomes to one file.
type FileMisses struct {
	Path      string
	Remaining uint64
	Missed    uint64
}

func (o Options) segmentSize() int {
	if o.SegmentSize <= 0 {
		return DefaultSegmentSize
	}
	return o.SegmentSize
}

// Result aggregates one system's simulation.
type Result struct {
	System  string
	Files   uint64
	Packets uint64
	Bytes   uint64
	splice.Counts
	// WorstFiles holds the files with the most checksum misses, most
	// missed first, when Options.TrackWorst was set.
	WorstFiles []FileMisses
}

// add folds o's counts into r.
func (r *Result) add(o Result) {
	r.Counts.Add(o.Counts)
	r.Files += o.Files
	r.Packets += o.Packets
	r.Bytes += o.Bytes
}

// runShard is one Collect worker's private state: its simulation
// runner, its partial Result and its bounded top-K heap.
type runShard struct {
	r   *fileRunner
	res Result
	top *topK
}

// Run simulates the transfer of every file that w yields and inspects
// every splice of adjacent segments.  It is one Collect pass: each
// worker runs files (compressing them first under Options.Compress) into
// a private runShard, and the shards merge once after the walk drains.
// The result is deterministic because per-file state is independent and
// aggregation is commutative.
// ctx cancels the run between files; the partial result and ctx.Err()
// are returned.
func Run(ctx context.Context, w corpus.Walker, name string, opt Options) (Result, error) {
	var paths *pathLog
	if opt.TrackWorst > 0 {
		paths = &pathLog{Walker: w}
		w = paths
	}
	s, err := Collect(ctx, w, CollectOptions{Workers: opt.Workers, Progress: opt.Progress},
		func() *runShard { return &runShard{r: newFileRunner(opt), top: newTopK(opt.TrackWorst)} },
		func(s *runShard, idx int, data []byte) {
			if opt.Compress {
				data = corpus.Compress(data)
			}
			counts, packets := s.r.run(data)
			s.res.add(Result{Files: 1, Packets: packets, Bytes: uint64(len(data)), Counts: counts})
			if paths == nil {
				return
			}
			if path := paths.take(idx); counts.Remaining > 0 {
				s.top.offer(FileMisses{
					Path:      path,
					Remaining: counts.Remaining,
					Missed:    counts.MissedByChecksum,
				})
			}
		},
		func(dst, src *runShard) {
			dst.res.add(src.res)
			dst.top.merge(src.top)
		},
	)
	res := s.res
	res.System = name
	res.WorstFiles = s.top.sorted()
	return res, err
}

// pathLog is a Walker that records every path it yields by walk order,
// which is the index Collect hands each file: the file callback carries
// no path, but the top-K heap breaks ties on one.  Each entry is freed
// when its file is taken, so the log holds only the files in flight.
type pathLog struct {
	corpus.Walker
	mu    sync.Mutex
	n     int
	paths map[int]string
}

func (l *pathLog) Walk(fn func(path string, data []byte) error) error {
	l.paths = make(map[int]string)
	return l.Walker.Walk(func(path string, data []byte) error {
		l.mu.Lock()
		l.paths[l.n] = path
		l.n++
		l.mu.Unlock()
		return fn(path, data)
	})
}

// take returns and forgets the path of the idx'th file walked.
func (l *pathLog) take(idx int) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	path := l.paths[idx]
	delete(l.paths, idx)
	return path
}

// fileRunner holds one worker's reusable simulation state: the splice
// enumerator and the alternating packet buffers.  After warm-up, a
// runner processes packet pairs with zero allocations.
type fileRunner struct {
	opt  Options
	seg  int
	cfg  splice.Config
	enum *splice.Enumerator
	flow tcpip.Flow
	bufs [2][]byte
}

func newFileRunner(opt Options) *fileRunner {
	return &fileRunner{
		opt:  opt,
		seg:  opt.segmentSize(),
		cfg:  splice.Config{Opts: opt.Build, CheckCRC: opt.CheckCRC},
		enum: splice.NewEnumerator(),
	}
}

// run simulates one file's transfer and enumerates splices of every
// adjacent packet pair.  Two packet buffers alternate so the whole
// transfer runs without per-packet allocation.
func (r *fileRunner) run(data []byte) (splice.Counts, uint64) {
	// Each file gets a fresh flow (sequence numbers and IP IDs restart);
	// the copy through the inlined constructor stays off the heap.
	r.flow = *tcpip.NewLoopbackFlow(r.opt.Build)

	var counts splice.Counts
	var packets uint64
	var prev []byte
	for off := 0; off < len(data); off += r.seg {
		end := off + r.seg
		if end > len(data) {
			end = len(data)
		}
		slot := int(packets) & 1
		pkt := r.flow.NextPacket(r.bufs[slot][:0], data[off:end])
		r.bufs[slot] = pkt[:0]
		packets++
		if prev != nil {
			counts.Add(r.enum.Pair(prev, pkt, r.cfg))
		}
		prev = pkt
	}
	return counts, packets
}
