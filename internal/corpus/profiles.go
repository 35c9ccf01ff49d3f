package corpus

// Site profiles modelled on the file systems the paper scanned.  The
// mixtures follow what the paper says about each system: the SICS /srcN
// trees were source code, /opt and /solaris carried executables (§ Table
// 2 notes "% executables" for /opt), Stanford's /u1 was a user tree that
// contained the pathological PBM plot directory, the hex PostScript
// bitmaps, BinHex documents and gmon.out files (§5.5), and /usr/local
// was a binaries-plus-docs tree.  NSC's nine systems are general-purpose
// mixes.  File counts here are scaled-down defaults (use Scale to grow
// them); the mixture ratios are what shape the checksum distributions.

// StanfordU1 is smeg.dsg.stanford.edu:/u1 — the system of Figures 2–3
// and Tables 4–6/10: a user tree with text, source, binaries and the
// §5.5 pathological image/profile data.
func StanfordU1() Profile {
	return Profile{
		Name: "smeg.stanford.edu:/u1",
		Mix: []TypeWeight{
			{EnglishText, 30}, {CSource, 24}, {Executable, 20},
			{PBMImage, 3}, {PSHexBitmap, 4}, {BinHex, 3},
			{GmonOut, 2}, {WordProcessor, 2}, {Compressed, 7}, {LogFile, 5},
		},
		Files: 160, MinSize: 512, MaxSize: 96 * 1024,
		Seed: 0x51EC0DE1, Clusters: true,
	}
}

// StanfordUsrLocal is pompano.stanford.edu:/usr/local — installed
// software: binaries, scripts and documentation.
func StanfordUsrLocal() Profile {
	return Profile{
		Name: "pompano.stanford.edu:/usr/local",
		Mix: []TypeWeight{
			{Executable, 45}, {EnglishText, 20}, {CSource, 15},
			{Compressed, 10}, {LogFile, 5}, {GmonOut, 5},
		},
		Files: 130, MinSize: 1024, MaxSize: 128 * 1024,
		Seed: 0x51EC0DE2, Clusters: true,
	}
}

// SICSSrc returns fafner.sics.se:/srcN (N in 1..4) — source trees.
func SICSSrc(n int) Profile {
	return Profile{
		Name: sicsName(n),
		Mix: []TypeWeight{
			{CSource, 55}, {EnglishText, 25}, {Executable, 8},
			{Compressed, 7}, {LogFile, 5},
		},
		Files: 140, MinSize: 256, MaxSize: 64 * 1024,
		Seed: 0x51C5000 + uint64(n), Clusters: true,
	}
}

func sicsName(n int) string {
	switch n {
	case 1:
		return "sics.se:/src1"
	case 2:
		return "sics.se:/src2"
	case 3:
		return "sics.se:/src3"
	default:
		return "sics.se:/src4"
	}
}

// SICSOpt is fafner.sics.se:/opt — the executables-heavy system that
// gave the TCP checksum the most trouble and is the Table 7 compression
// subject.
func SICSOpt() Profile {
	return Profile{
		Name: "sics.se:/opt",
		Mix: []TypeWeight{
			{Executable, 55}, {GmonOut, 5}, {WordProcessor, 4},
			{EnglishText, 15}, {CSource, 12}, {Compressed, 9},
		},
		Files: 150, MinSize: 1024, MaxSize: 160 * 1024,
		Seed: 0x51C50F7, Clusters: true,
	}
}

// SICSIssl is sics.se:/issl — a mixed project tree.
func SICSIssl() Profile {
	return Profile{
		Name: "sics.se:/issl",
		Mix: []TypeWeight{
			{CSource, 30}, {EnglishText, 25}, {Executable, 20},
			{PSHexBitmap, 8}, {Compressed, 10}, {LogFile, 7},
		},
		Files: 130, MinSize: 512, MaxSize: 64 * 1024,
		Seed: 0x51C5155, Clusters: true,
	}
}

// SICSSolaris is sics.se:/solaris — an OS install image.
func SICSSolaris() Profile {
	return Profile{
		Name: "sics.se:/solaris",
		Mix: []TypeWeight{
			{Executable, 60}, {EnglishText, 12}, {CSource, 8},
			{Compressed, 12}, {LogFile, 4}, {GmonOut, 4},
		},
		Files: 150, MinSize: 2048, MaxSize: 192 * 1024,
		Seed: 0x51C550A, Clusters: true,
	}
}

// SICSCna is sics.se:/cna — a mixed user tree.
func SICSCna() Profile {
	return Profile{
		Name: "sics.se:/cna",
		Mix: []TypeWeight{
			{EnglishText, 30}, {CSource, 20}, {Executable, 15},
			{WordProcessor, 10}, {BinHex, 8}, {Compressed, 10}, {LogFile, 7},
		},
		Files: 140, MinSize: 512, MaxSize: 96 * 1024,
		Seed: 0x51C5CA, Clusters: true,
	}
}

// NSC returns one of the nine Network Systems Corporation systems of
// Table 1 (valid codes: 5, 11, 23, 25, 27, 29, 49, 51, 52).  Each gets
// a slightly different general-purpose mixture, deterministically
// derived from its code.
func NSC(code int) Profile {
	// Vary the mixture with the code so the nine systems differ the way
	// the paper's do.
	w := func(base, span int) int { return base + (code*7)%span }
	return Profile{
		Name: nscName(code),
		Mix: []TypeWeight{
			{EnglishText, w(18, 12)}, {CSource, w(14, 10)},
			{Executable, w(20, 15)}, {Compressed, w(6, 6)},
			{LogFile, w(4, 5)}, {GmonOut, 1 + code%2},
			{WordProcessor, code % 3}, {PBMImage, code % 3},
		},
		Files: 110 + code%5*10, MinSize: 512, MaxSize: 80 * 1024,
		Seed: 0x05C000 + uint64(code), Clusters: true,
	}
}

func nscName(code int) string {
	return "nsc" + twoDigits(code)
}

func twoDigits(n int) string {
	return string([]byte{'0' + byte(n/10%10), '0' + byte(n%10)})
}

// NSCCodes lists the nine NSC system codes of Table 1.
func NSCCodes() []int { return []int{5, 11, 23, 25, 27, 29, 49, 51, 52} }

// AllProfiles returns every site profile the experiment harness knows,
// in paper order (Table 1, Table 2, Table 3).
func AllProfiles() []Profile {
	var out []Profile
	for _, c := range NSCCodes() {
		out = append(out, NSC(c))
	}
	for n := 1; n <= 4; n++ {
		out = append(out, SICSSrc(n))
	}
	out = append(out, SICSIssl(), SICSOpt(), SICSSolaris(), SICSCna())
	out = append(out, StanfordU1(), StanfordUsrLocal())
	return out
}

// ByName returns the profile with the given Name, if known.
func ByName(name string) (Profile, bool) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// PathologicalPBM is a corpus of nothing but black-and-white plot
// bitmaps — the directory of Internet-backbone RTT graphs that made
// Fletcher-255 perform worse than the TCP checksum (§5.5).
func PathologicalPBM() Profile {
	return Profile{
		Name:  "pathological:pbm",
		Mix:   []TypeWeight{{PBMImage, 1}},
		Files: 40, MinSize: 8 * 1024, MaxSize: 64 * 1024,
		Seed: 0xBAD0001,
	}
}

// PathologicalPSHex is a corpus of hex-encoded PostScript bitmaps — the
// mod-256 Fletcher pathology of §5.5.
func PathologicalPSHex() Profile {
	return Profile{
		Name:  "pathological:pshex",
		Mix:   []TypeWeight{{PSHexBitmap, 1}},
		Files: 40, MinSize: 8 * 1024, MaxSize: 64 * 1024,
		Seed: 0xBAD0002,
	}
}

// PathologicalGmon is a corpus of gmon.out profiles — the standard
// Internet checksum pathology of §5.5.
func PathologicalGmon() Profile {
	return Profile{
		Name:  "pathological:gmon",
		Mix:   []TypeWeight{{GmonOut, 1}},
		Files: 40, MinSize: 8 * 1024, MaxSize: 64 * 1024,
		Seed: 0xBAD0003,
	}
}
