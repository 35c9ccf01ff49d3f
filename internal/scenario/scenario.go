// Package scenario is the declarative control surface over the netsim
// engine: a Scenario names a traffic mix (a synthetic corpus profile or
// a real directory tree), a fault battery, checksum placements, a seed
// and a budget, and validates into the netsim.Config + corpus.Walker
// pair every consumer runs — cmd/netsim and cmd/paper as one-shot batch
// runs, cmd/cksumd as long-running concurrent verification streams.
//
// Scenarios replace the ad-hoc flag cross-product the batch CLIs grew:
// the flags survive as thin aliases that build a Scenario, and a
// profile file (JSON, see Load) expresses the same run declaratively so
// a service can be handed a workload instead of a command line.
//
// Determinism: a Scenario pins everything that shapes the run — corpus
// profile and scale, seed, trials, mode, channels, placements — so two
// executions of the same Scenario are byte-identical, whether batch or
// streamed (see Server), at any worker count.
package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"realsum/internal/algo"
	"realsum/internal/census"
	"realsum/internal/corpus"
	"realsum/internal/netsim"
	"realsum/internal/sim"
)

// Scenario is one declarative verification workload.  The zero value
// (plus a corpus source) is the default batch run: ModeTCP, the full
// channel and placement batteries, 6 trials per (file × channel), one
// corpus pass.
type Scenario struct {
	// Name labels the scenario in status and metrics output.
	Name string `json:"name,omitempty"`

	// Profile names a synthetic corpus profile (corpus.ByName); Dir
	// scores a real directory tree instead.  Exactly one may be set for
	// in-process runs; both stay empty for TCP wire streams, whose
	// corpus arrives on the connection.
	Profile string `json:"profile,omitempty"`
	Dir     string `json:"dir,omitempty"`
	// Scale multiplies the synthetic profile's file count (default 1.0);
	// a Dir scenario leaves it unset.
	Scale float64 `json:"scale,omitempty"`

	// Mode is the transport encoding: "tcp" (default) or "udpfrag".
	Mode string `json:"mode,omitempty"`
	// Channels is the fault battery subset (default: every channel).
	Channels []string `json:"channels,omitempty"`
	// Placements is the checksum-placement subset (default: every
	// placement; "segment" applies to tcp mode only).
	Placements []string `json:"placements,omitempty"`
	// Algorithms restricts the scored battery to these registry names
	// (default: every registered algorithm).  Census-gated candidates
	// (census.Keys) are accepted too; naming one registers the census
	// slate when the scenario builds its Config, so the default battery
	// is only ever widened on explicit request.
	Algorithms []string `json:"algorithms,omitempty"`

	// Compress enables the LZ payload stage: corpus files are
	// lz-compressed before transport encoding, so the faults hit
	// near-uniform bytes (the paper's Table 7 axis).
	Compress bool `json:"compress,omitempty"`

	// Retrans closes the retransmission loop: detected corruptions and
	// lost trailers are retransmitted through the re-rolled channel,
	// misses are accepted corrupt, and the tally reports residual
	// corrupt bytes per delivered GB plus goodput overhead vs a perfect
	// oracle.  MaxRetries caps the attempts per packet (default 8; must
	// not be negative).
	Retrans    bool `json:"retrans,omitempty"`
	MaxRetries int  `json:"max_retries,omitempty"`

	// Trials per (file × channel) (default 6).
	Trials int `json:"trials,omitempty"`
	// Seed is the root seed; every per-trial fault pattern derives from
	// it.  Replicated streams run netsim.StreamSeed(Seed, replica).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds engine parallelism per stream (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`

	// SegmentSize, DatagramSize and MTU override the transport framing
	// (defaults 256, 1024, 280 — the paper's numbers).
	SegmentSize  int `json:"segment_size,omitempty"`
	DatagramSize int `json:"datagram_size,omitempty"`
	MTU          int `json:"mtu,omitempty"`

	// Streams is the number of concurrent replicas a Server runs
	// (default 1).  Replica r is seeded netsim.StreamSeed(Seed, r), so
	// replica 0 reproduces the batch run and the rest decorrelate.
	Streams int `json:"streams,omitempty"`
	// Passes is the per-stream trial budget in whole corpus passes:
	// n > 0 runs exactly n passes, 0 defaults to one pass (the batch
	// equivalence), and -1 runs until the service shuts down or the
	// Duration budget expires.
	Passes int `json:"passes,omitempty"`
	// Duration is the per-stream wall-clock budget ("30s", "5m"); the
	// stream stops feeding files once it elapses.  Empty means no clock
	// budget.
	Duration string `json:"duration,omitempty"`
}

// Load reads one Scenario from a JSON profile file.  Unknown fields are
// errors, so a typo in a profile fails loudly instead of silently
// running the default.  A relative dir names a tree relative to the
// profile file, so a profile runs from any working directory.
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		// Validate's errors carry the prefix already; decode errors do not.
		return Scenario{}, fmt.Errorf("scenario: %s: %s", path, strings.TrimPrefix(err.Error(), "scenario: "))
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(strings.TrimSuffix(path, ".json"), ".scenario")
	}
	if s.Dir != "" && !filepath.IsAbs(s.Dir) {
		s.Dir = filepath.Join(filepath.Dir(path), s.Dir)
	}
	return s, nil
}

// Parse decodes one Scenario from JSON and validates it.  A relative
// dir is left as written: a reader has no directory of its own.
func Parse(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, err
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

func (s Scenario) scale() float64 {
	if s.Scale <= 0 {
		return 1.0
	}
	return s.Scale
}

func (s Scenario) streams() int {
	if s.Streams <= 0 {
		return 1
	}
	return s.Streams
}

// passes returns the per-stream pass budget: 0 means unbounded.
func (s Scenario) passes() int {
	switch {
	case s.Passes > 0:
		return s.Passes
	case s.Passes < 0:
		return 0
	default:
		return 1
	}
}

// duration returns the parsed wall-clock budget (0 = none).  Validate
// has already rejected malformed strings.
func (s Scenario) duration() time.Duration {
	if s.Duration == "" {
		return 0
	}
	d, _ := time.ParseDuration(s.Duration)
	return d
}

// HasSource reports whether the scenario names its own corpus (profile
// or directory) — false for wire scenarios fed over a TCP connection.
func (s Scenario) HasSource() bool { return s.Profile != "" || s.Dir != "" }

// Validate checks every declarative field without touching the file
// system: mode, channel and placement names (unknown names error
// sorted, matching the ChannelsByName convention), numeric ranges, the
// duration syntax, and the corpus-source exclusivity.
func (s Scenario) Validate() error {
	if _, err := ParseMode(s.Mode); err != nil {
		return err
	}
	if _, err := channelSpecs(s.Channels); err != nil {
		return err
	}
	if _, err := placements(s.Placements); err != nil {
		return err
	}
	if err := checkAlgorithms(s.Algorithms); err != nil {
		return err
	}
	if s.Profile != "" && s.Dir != "" {
		return fmt.Errorf("scenario: profile %q and dir %q are mutually exclusive", s.Profile, s.Dir)
	}
	if s.Scale < 0 {
		return fmt.Errorf("scenario: negative scale %v", s.Scale)
	}
	if s.Dir != "" && s.Scale != 0 {
		return fmt.Errorf("scenario: scale %v scales a synthetic profile; it does not apply to dir %q", s.Scale, s.Dir)
	}
	if s.Trials < 0 {
		return fmt.Errorf("scenario: negative trials %d", s.Trials)
	}
	if s.MaxRetries < 0 {
		return fmt.Errorf("scenario: negative max_retries %d", s.MaxRetries)
	}
	if s.Workers < 0 {
		return fmt.Errorf("scenario: negative workers %d", s.Workers)
	}
	if s.Streams < 0 {
		return fmt.Errorf("scenario: negative streams %d", s.Streams)
	}
	if s.Passes < -1 {
		return fmt.Errorf("scenario: passes %d (want -1 for unbounded, 0 for the one-pass default, or a positive budget)", s.Passes)
	}
	if s.Duration != "" {
		d, err := time.ParseDuration(s.Duration)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s.Duration, err)
		}
		if d <= 0 {
			return fmt.Errorf("scenario: non-positive duration %q", s.Duration)
		}
	}
	return nil
}

// Config validates the scenario and builds the netsim.Config it runs.
func (s Scenario) Config() (netsim.Config, error) {
	if err := s.Validate(); err != nil {
		return netsim.Config{}, err
	}
	mode, _ := ParseMode(s.Mode)
	chans, _ := channelSpecs(s.Channels)
	pls, _ := placements(s.Placements)
	algs, err := resolveAlgorithms(s.Algorithms)
	if err != nil {
		return netsim.Config{}, err
	}
	return netsim.Config{
		Mode:         mode,
		SegmentSize:  s.SegmentSize,
		DatagramSize: s.DatagramSize,
		MTU:          s.MTU,
		Compress:     s.Compress,
		Retrans:      s.Retrans,
		MaxRetries:   s.MaxRetries,
		Trials:       s.Trials,
		Seed:         s.Seed,
		Channels:     chans,
		Placements:   pls,
		Algorithms:   algs,
		Workers:      s.Workers,
	}, nil
}

// Walker resolves the scenario's corpus source.  Synthetic profiles are
// scaled and their generator seed is XORed with the scenario seed — the
// same convention as cmd/netsim and cmd/paper, so a Scenario at seed S
// sees exactly the corpus the batch CLIs built at -seed S.
func (s Scenario) Walker() (corpus.Walker, error) {
	if s.Dir != "" {
		return corpus.DirWalker(s.Dir), nil
	}
	if s.Profile == "" {
		return nil, errors.New("scenario: no corpus source (set profile or dir)")
	}
	p, ok := corpus.ByName(s.Profile)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown profile %q", s.Profile)
	}
	p = p.Scale(s.scale())
	p.Seed ^= s.Seed
	return p.Build(), nil
}

// Run executes the scenario as one batch netsim.Run — the one-shot path
// behind cmd/netsim and cmd/paper -netsim.  progress may be nil.
func (s Scenario) Run(ctx context.Context, progress *sim.Progress) (*netsim.Tally, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	w, err := s.Walker()
	if err != nil {
		return nil, err
	}
	cfg.Progress = progress
	return netsim.Run(ctx, w, cfg)
}

// ParseMode resolves a transport-mode name ("" defaults to tcp).
func ParseMode(name string) (netsim.Mode, error) {
	switch name {
	case "", "tcp":
		return netsim.ModeTCP, nil
	case "udpfrag":
		return netsim.ModeUDPFrag, nil
	}
	return 0, fmt.Errorf("scenario: unknown mode %q (want tcp or udpfrag)", name)
}

// channelSpecs resolves a channel-name list (nil/empty = the full
// battery, returned as nil so netsim applies its default).
func channelSpecs(names []string) ([]netsim.ChannelSpec, error) {
	if len(names) == 0 {
		return nil, nil
	}
	specs, unknown := netsim.ChannelsByName(names)
	if len(unknown) > 0 {
		return nil, fmt.Errorf("scenario: unknown channels %v (want a subset of %s)",
			unknown, strings.Join(netsim.ChannelNames(), ","))
	}
	return specs, nil
}

// checkAlgorithms validates an algorithm-name subset without touching
// the registry: every name must already be registered or be a
// census-gated candidate (published by resolveAlgorithms when the
// scenario builds its Config).  Unknown names error sorted, duplicates
// error too — netsim tallies are keyed by name, so a repeat would
// shadow its twin's counts.
func checkAlgorithms(names []string) error {
	seen := make(map[string]bool, len(names))
	var unknown []string
	for _, n := range names {
		if seen[n] {
			return fmt.Errorf("scenario: duplicate algorithm %q", n)
		}
		seen[n] = true
		if _, ok := algo.Lookup(n); ok {
			continue
		}
		if _, ok := census.ByKey(n); ok {
			continue
		}
		unknown = append(unknown, n)
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("scenario: unknown algorithms %v (want registry names %s, or census candidates %s)",
			unknown, strings.Join(algo.Names(), ","), strings.Join(census.Keys(), ","))
	}
	return nil
}

// resolveAlgorithms turns a validated name list into engine instances
// (nil/empty = nil, netsim's full-registry default).  Census-gated
// names trigger the slate registration here — the one EnsureFor hook
// every scenario consumer (cmd/netsim, cmd/paper, cksumd streams)
// funnels through.
func resolveAlgorithms(names []string) ([]algo.Algorithm, error) {
	if len(names) == 0 {
		return nil, nil
	}
	census.EnsureFor(names)
	out := make([]algo.Algorithm, 0, len(names))
	for _, n := range names {
		a, ok := algo.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("scenario: algorithm %q vanished after registration", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// placements resolves a placement-name list (nil/empty = the full
// battery, returned as nil so netsim applies its default).
func placements(names []string) ([]netsim.Placement, error) {
	if len(names) == 0 {
		return nil, nil
	}
	pls, unknown := netsim.PlacementsByName(names)
	if len(unknown) > 0 {
		return nil, fmt.Errorf("scenario: unknown placements %v (want a subset of %s)",
			unknown, strings.Join(netsim.PlacementNames(), ","))
	}
	return pls, nil
}
