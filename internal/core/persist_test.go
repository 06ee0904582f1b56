package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flatbuf"
)

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	net := randomNetwork(rng, 40, 25, true)
	prep := dataset.Prepare(net)
	truth := NewNaiveBFS(net)

	persistable := []struct {
		method Method
		policy dataset.SCCPolicy
	}{
		{MethodThreeDReach, dataset.Replicate},
		{MethodThreeDReach, dataset.MBR},
		{MethodThreeDReachRev, dataset.Replicate},
		{MethodSocReach, dataset.Replicate},
		{MethodSpaReachINT, dataset.Replicate},
		{MethodSpaReachINT, dataset.MBR},
		{MethodSpaReachBFL, dataset.Replicate},
		{MethodGeoReach, dataset.Replicate},
	}
	for _, tc := range persistable {
		res, err := BuildMethod(prep, tc.method, BuildOptions{Policy: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveEngine(&buf, res.Engine); err != nil {
			t.Fatalf("%v/%v: save: %v", tc.method, tc.policy, err)
		}
		loaded, err := LoadEngine(&buf, prep, BuildOptions{})
		if err != nil {
			t.Fatalf("%v/%v: load: %v", tc.method, tc.policy, err)
		}
		if loaded.Method != tc.method || loaded.Policy != tc.policy {
			t.Fatalf("%v/%v: header round trip lost metadata: %v/%v",
				tc.method, tc.policy, loaded.Method, loaded.Policy)
		}
		for q := 0; q < 40; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			want := truth.RangeReach(v, r)
			if got := loaded.Engine.RangeReach(v, r); got != want {
				t.Fatalf("%v/%v: loaded engine wrong at v=%d r=%v: got %v want %v",
					tc.method, tc.policy, v, r, got, want)
			}
		}
	}
}

// TestSocReachBPTreeFlagSurvives loads SocReach images that carry the
// retired B+-tree flag — bit 0 of the v2 manifest flags and of the v1
// flags byte. Both formats load, validate and answer like the unflagged
// image on BFS-checked queries; any other flag bit is still rejected.
func TestSocReachBPTreeFlagSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	net := randomNetwork(rng, 40, 25, true)
	prep := dataset.Prepare(net)
	truth := NewNaiveBFS(net)
	e := NewSocReach(prep, SocReachOptions{})

	var v2, v1 bytes.Buffer
	if err := SaveEngine(&v2, e); err != nil {
		t.Fatal(err)
	}
	if err := SaveEngineV1(&v1, e); err != nil {
		t.Fatal(err)
	}
	// withV2Flags sets bits in the top-level manifest header (Method u8,
	// Policy u8, Flags u16 little-endian) of a copy of the v2 image.
	withV2Flags := func(bits uint8) []byte {
		data := bytes.Clone(v2.Bytes())
		img, err := flatbuf.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		man, ok := img.Section(0, secManifest)
		if !ok || man[0] != uint8(MethodSocReach) || man[2] != 0 {
			t.Fatalf("unexpected v2 manifest % x", man)
		}
		man[2] |= bits // aliases data
		return data
	}
	// withV1Flags sets bits in the flags byte that follows the v1
	// header (magic, version, method, policy).
	withV1Flags := func(bits uint8) []byte {
		data := bytes.Clone(v1.Bytes())
		const flagsAt = len(engineMagic) + 3
		if data[len(engineMagic)+1] != uint8(MethodSocReach) || data[flagsAt] != 0 {
			t.Fatalf("unexpected v1 header % x", data[:flagsAt+1])
		}
		data[flagsAt] |= bits
		return data
	}
	load := func(data []byte) (Engine, error) {
		res, err := LoadEngine(bytes.NewReader(data), prep, BuildOptions{})
		return res.Engine, err
	}

	plain, err := load(v2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"v2": withV2Flags(socFlagBPTree),
		"v1": withV1Flags(socFlagBPTree),
	} {
		flagged, err := load(data)
		if err != nil {
			t.Fatalf("%s: flagged image rejected: %v", name, err)
		}
		if _, ok := flagged.(*SocReach); !ok {
			t.Fatalf("%s: loaded %T, want *SocReach", name, flagged)
		}
		if err := ValidateEngine(flagged); err != nil {
			t.Fatalf("%s: flagged image fails validation: %v", name, err)
		}
		if flagged.MemoryBytes() != plain.MemoryBytes() {
			t.Errorf("%s: MemoryBytes %d, unflagged %d", name, flagged.MemoryBytes(), plain.MemoryBytes())
		}
		qrng := rand.New(rand.NewSource(608))
		for q := 0; q < 300; q++ {
			v := qrng.Intn(net.NumVertices())
			r := randomRegion(qrng)
			want := truth.RangeReach(v, r)
			if got := flagged.RangeReach(v, r); got != want || plain.RangeReach(v, r) != want {
				t.Fatalf("%s: RangeReach(%d, %v) = %v (unflagged %v), BFS %v",
					name, v, r, got, plain.RangeReach(v, r), want)
			}
		}
	}
	for _, bit := range []uint8{1 << 1, 1 << 7} {
		if _, err := load(withV2Flags(bit)); err == nil {
			t.Errorf("v2: unknown SocReach flag %#x accepted", bit)
		}
		if _, err := load(withV1Flags(bit)); err == nil {
			t.Errorf("v1: unknown SocReach flag %#x accepted", bit)
		}
	}
}

func TestSaveEngineUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	prep := dataset.Prepare(randomNetwork(rng, 10, 5, false))
	var buf bytes.Buffer
	if err := SaveEngine(&buf, NewNaiveBFS(prep.Net)); err == nil {
		t.Error("naive save accepted")
	}
	if err := SaveEngine(&buf, NewSpaReachFeline(prep, SpaReachOptions{})); err == nil {
		t.Error("Feline save accepted")
	}
}

func TestLoadEngineRejectsCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	prep := dataset.Prepare(randomNetwork(rng, 10, 5, false))

	cases := map[string]string{
		"empty":     "",
		"bad-magic": "XXXXxxxxxxxxxxxxx",
		"truncated": "RRIX\x01\x04\x00", // header only, no payload
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadEngine(strings.NewReader(input), prep, BuildOptions{}); err == nil {
				t.Error("corrupt input accepted")
			}
		})
	}
}

func TestLoadEngineRejectsWrongNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(617))
	prepA := dataset.Prepare(randomNetwork(rng, 30, 20, false))
	prepB := dataset.Prepare(randomNetwork(rng, 10, 5, false))
	e := NewThreeDReach(prepA, ThreeDOptions{})
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, prepB, BuildOptions{}); err == nil {
		t.Error("engine accepted against a different network")
	}
}
