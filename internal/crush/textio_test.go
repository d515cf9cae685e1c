package crush

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestEncodeTextDefaultMapDigest pins the text form of crushtool's default
// map (2 hosts × 16 OSDs, straw2 throughout) byte for byte, which is what
// `crushtool -decompile` prints.
func TestEncodeTextDefaultMapDigest(t *testing.T) {
	m, _, err := BuildCluster(ClusterSpec{Hosts: 2, OSDsPerHost: 16, HostAlg: Straw2Alg, RootAlg: Straw2Alg})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(m.EncodeTextString()))
	const want = "7fe6e785a72867a861360f32e873e87a480ab25f64545bb0805048c4faaa69a6"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("EncodeText digest = %s, want %s\n%s", got, want, m.EncodeTextString())
	}
}

func TestTextFormatContents(t *testing.T) {
	m, _, _ := BuildCluster(ClusterSpec{Hosts: 2, OSDsPerHost: 2})
	text := m.EncodeTextString()
	for _, want := range []string{
		"tunable choose_total_tries 50",
		"device 0 osd.0",
		"type 1 host",
		"host host0 {",
		"root default {",
		"alg straw2",
		"item osd.0 weight 1.000",
		"item host0 weight 2.000",
		"rule replicated_rule {",
		"step take default",
		"step chooseleaf firstn 0 type host",
		"step emit",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestBucketNameHelpers(t *testing.T) {
	m := NewMap()
	if m.BucketName(-7) != "bucket7" {
		t.Fatalf("synth name = %q", m.BucketName(-7))
	}
	m.SetBucketName(-7, "rack-a")
	if m.BucketName(-7) != "rack-a" {
		t.Fatal("set name lost")
	}
}
