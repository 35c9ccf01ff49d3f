package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"realsum/internal/algo"
	"realsum/internal/netsim"
)

// TestAlgorithmsGating runs first (Go test order is source order): a
// census-gated name must pass Validate without touching the registry —
// registration happens only when a Config is actually built — so merely
// parsing a profile can never widen the default battery.  It must also
// be in this file above TestLoadGolden, whose census-battery golden
// builds a Config and registers the slate for the rest of the binary.
func TestAlgorithmsGating(t *testing.T) {
	sc := Scenario{Profile: "smeg.stanford.edu:/u1", Algorithms: []string{"crc24a", "crc32"}}
	if err := sc.Validate(); err != nil {
		t.Fatalf("Validate rejected a census candidate: %v", err)
	}
	if _, ok := algo.Lookup("crc24a"); ok {
		t.Fatal("Validate registered the census slate; only Config may")
	}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := algo.Lookup("crc24a"); !ok {
		t.Fatal("Config did not register the census slate for a census name")
	}
	if len(cfg.Algorithms) != 2 || cfg.Algorithms[0].Name() != "crc24a" {
		t.Errorf("Config algorithms = %d entries, first %q", len(cfg.Algorithms), cfg.Algorithms[0].Name())
	}
}

// TestLoadGolden pins the parse → validate → Config pipeline over the
// checked-in profile files: every declarative field must land in the
// netsim.Config (or budget accessor) it controls.
func TestLoadGolden(t *testing.T) {
	t.Run("onescomp", func(t *testing.T) {
		sc, err := Load("testdata/onescomp.json")
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name != "onescomp-audit" || sc.Dir != "../../testdata/netcorpus" {
			t.Errorf("name/dir = %q/%q", sc.Name, sc.Dir)
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Mode != netsim.ModeTCP {
			t.Errorf("mode = %v, want tcp default", cfg.Mode)
		}
		if len(cfg.Channels) != 4 || cfg.Channels[0].Name != "drop" || cfg.Channels[3].Name != "dup" {
			t.Errorf("channels = %d entries (want drop..dup in battery order)", len(cfg.Channels))
		}
		if cfg.Trials != 2 || cfg.Workers != 2 || cfg.Seed != 0 {
			t.Errorf("trials/workers/seed = %d/%d/%d", cfg.Trials, cfg.Workers, cfg.Seed)
		}
		if cfg.Placements != nil {
			t.Errorf("placements = %v, want nil (netsim default battery)", cfg.Placements)
		}
		if sc.passes() != 1 || sc.streams() != 1 || sc.duration() != 0 {
			t.Errorf("budget = %d passes / %d streams / %v", sc.passes(), sc.streams(), sc.duration())
		}
	})

	t.Run("stanford-sustained", func(t *testing.T) {
		sc, err := Load("testdata/stanford-sustained.json")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Seed != 42 || len(cfg.Channels) != 2 || len(cfg.Placements) != 2 {
			t.Errorf("seed/channels/placements = %d/%d/%d", cfg.Seed, len(cfg.Channels), len(cfg.Placements))
		}
		if sc.streams() != 4 || sc.passes() != 0 || sc.duration() != 2*time.Minute {
			t.Errorf("budget = %d streams / %d passes / %v, want 4 / unbounded / 2m",
				sc.streams(), sc.passes(), sc.duration())
		}
		if _, err := sc.Walker(); err != nil {
			t.Errorf("Walker: %v", err)
		}
	})

	t.Run("onescomp-lz", func(t *testing.T) {
		sc, err := Load("testdata/onescomp-lz.json")
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Compress {
			t.Error("compress flag did not survive Load")
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Compress {
			t.Error("compress flag did not reach netsim.Config")
		}
		if len(cfg.Channels) != 2 || cfg.Channels[0].Name != "drop" || cfg.Channels[1].Name != "burst" {
			t.Errorf("channels = %d entries (want drop,burst)", len(cfg.Channels))
		}
	})

	t.Run("retrans", func(t *testing.T) {
		sc, err := Load("testdata/retrans.json")
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Retrans || sc.MaxRetries != 4 {
			t.Errorf("retrans/max_retries = %v/%d did not survive Load", sc.Retrans, sc.MaxRetries)
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Retrans || cfg.MaxRetries != 4 {
			t.Errorf("retrans/max_retries = %v/%d did not reach netsim.Config", cfg.Retrans, cfg.MaxRetries)
		}
		if len(cfg.Channels) != 3 || cfg.Channels[0].Name != "drop" {
			t.Errorf("channels = %d entries (want the three drop channels)", len(cfg.Channels))
		}
	})

	t.Run("census-battery", func(t *testing.T) {
		sc, err := Load("testdata/census-battery.json")
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.Algorithms) != 3 {
			t.Fatalf("algorithms = %v did not survive Load", sc.Algorithms)
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		if len(cfg.Algorithms) != 3 {
			t.Fatalf("Config built %d algorithms, want 3", len(cfg.Algorithms))
		}
		// Request order is preserved — the tally's per-algorithm columns
		// follow the scenario, not the registry.
		for i, want := range []string{"crc32", "crc24a", "crc6"} {
			if got := cfg.Algorithms[i].Name(); got != want {
				t.Errorf("algorithms[%d] = %q, want %q", i, got, want)
			}
		}
	})

	t.Run("udpfrag", func(t *testing.T) {
		sc, err := Load("testdata/udpfrag.json")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Mode != netsim.ModeUDPFrag || cfg.DatagramSize != 2048 || cfg.MTU != 576 {
			t.Errorf("mode/datagram/mtu = %v/%d/%d", cfg.Mode, cfg.DatagramSize, cfg.MTU)
		}
		if sc.passes() != 2 {
			t.Errorf("passes() = %d, want 2", sc.passes())
		}
	})
}

// TestParseErrors pins the validation error strings — unknown names
// come out sorted (the ChannelsByName convention), and unknown JSON
// fields fail instead of silently running a default.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown-channels-sorted", `{"channels": ["zz", "drop", "aa"]}`,
			"unknown channels [aa zz] (want a subset of drop,drop-ge,drop-burst,bitflip,burst,reorder,misinsert,dup)"},
		{"unknown-placement", `{"placements": ["middle"]}`,
			"unknown placements [middle] (want a subset of e2e,segment)"},
		{"unknown-mode", `{"mode": "sctp"}`, `unknown mode "sctp" (want tcp or udpfrag)`},
		{"unknown-algorithms-sorted", `{"algorithms": ["zz", "crc32", "aa"]}`,
			"unknown algorithms [aa zz]"},
		{"duplicate-algorithm", `{"algorithms": ["crc32", "crc32"]}`,
			`duplicate algorithm "crc32"`},
		{"unknown-field", `{"profil": "x"}`, `unknown field "profil"`},
		{"both-sources", `{"profile": "a", "dir": "b"}`, "mutually exclusive"},
		{"dir-with-scale", `{"dir": "b", "scale": 9}`, `scale 9 scales a synthetic profile; it does not apply to dir "b"`},
		{"bad-duration", `{"duration": "five minutes"}`, `bad duration "five minutes"`},
		{"negative-trials", `{"trials": -1}`, "negative trials -1"},
		{"negative-max-retries", `{"retrans": true, "max_retries": -3}`, "negative max_retries -3"},
		{"bad-passes", `{"passes": -2}`, "passes -2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("Parse(%s) succeeded, want error containing %q", tc.json, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestLoadErrorsNamePathOnce: every Load error carries one "scenario:"
// prefix and the file's path, whether it comes from opening, decoding or
// validating the file.
func TestLoadErrorsNamePathOnce(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, json, want string }{
		{"dir-with-scale.json", `{"dir": "b", "scale": 9}`, "scale 9 scales a synthetic profile"},
		{"unknown-field.json", `{"profil": "x"}`, `unknown field "profil"`},
		{"not-json.json", `five`, "invalid character"},
		{"missing.json", "", "no such file"},
	} {
		path := filepath.Join(dir, tc.name)
		if tc.json != "" {
			if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Load(path)
		if err == nil {
			t.Fatalf("Load(%s) succeeded", tc.name)
		}
		msg := err.Error()
		if strings.Count(msg, "scenario:") != 1 || !strings.Contains(msg, path) || !strings.Contains(msg, tc.want) {
			t.Errorf("Load(%s) = %q, want one \"scenario:\", the path and %q", tc.name, msg, tc.want)
		}
	}
}

// TestCompressRoundTrip: the compress field survives Parse → Validate →
// Config, defaults to off, and misuse still fails loudly (unknown
// sibling keys rejected alongside it).
func TestCompressRoundTrip(t *testing.T) {
	sc, err := Parse(strings.NewReader(`{"profile": "smeg.stanford.edu:/u1", "compress": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Compress {
		t.Error("compress=true did not survive Parse")
	}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Compress {
		t.Error("compress did not reach netsim.Config")
	}

	sc, err = Parse(strings.NewReader(`{"profile": "smeg.stanford.edu:/u1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Compress {
		t.Error("compress defaulted on")
	}

	if _, err := Parse(strings.NewReader(`{"compress": true, "compres": false}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "compres"`) {
		t.Errorf("unknown field beside compress: err = %v", err)
	}
}

func TestWalkerErrors(t *testing.T) {
	if _, err := (Scenario{}).Walker(); err == nil || !strings.Contains(err.Error(), "no corpus source") {
		t.Errorf("empty scenario Walker error = %v", err)
	}
	if _, err := (Scenario{Profile: "no-such-system"}).Walker(); err == nil || !strings.Contains(err.Error(), `unknown profile "no-such-system"`) {
		t.Errorf("unknown profile Walker error = %v", err)
	}
}

// TestParseFlagHelpers covers the name resolvers behind Validate and
// Config.
func TestParseFlagHelpers(t *testing.T) {
	specs, err := channelSpecs([]string{"burst", "drop"})
	if err != nil || len(specs) != 2 || specs[0].Name != "drop" {
		t.Errorf("channelSpecs = %v specs, err %v (want battery order drop,burst)", len(specs), err)
	}
	if specs, err := channelSpecs(nil); specs != nil || err != nil {
		t.Errorf("channelSpecs(nil) = %v, %v, want nil default", specs, err)
	}
	if _, err := channelSpecs([]string{"drop", "zz"}); err == nil || !strings.Contains(err.Error(), "unknown channels [zz]") {
		t.Errorf("channelSpecs unknown error = %v", err)
	}
	pls, err := placements([]string{"segment"})
	if err != nil || len(pls) != 1 || pls[0] != netsim.PlaceSegment {
		t.Errorf("placements = %v, %v", pls, err)
	}
	if _, err := placements([]string{"e2e", "nowhere"}); err == nil || !strings.Contains(err.Error(), "unknown placements [nowhere]") {
		t.Errorf("placements unknown error = %v", err)
	}
	if m, err := ParseMode(""); m != netsim.ModeTCP || err != nil {
		t.Errorf("ParseMode(\"\") = %v, %v", m, err)
	}
	if m, err := ParseMode("udpfrag"); m != netsim.ModeUDPFrag || err != nil {
		t.Errorf("ParseMode(udpfrag) = %v, %v", m, err)
	}
}
