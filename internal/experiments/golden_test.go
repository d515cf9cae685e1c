package experiments

import "testing"

// TestGoldenDigests pins every registry family's quick-config digest
// (Family.Golden). A family is only behavior-preserving across a refactor
// if its simulated event sequences are exactly unchanged, so a family whose
// runs carry a digest but have no pin fails here too.
func TestGoldenDigests(t *testing.T) {
	cfg := Quick()
	for _, fam := range Families() {
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			out, err := fam.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case out.Digested && fam.Golden == 0:
				t.Fatalf("%s digests (%016x) but has no golden pin", fam.Name, out.Digest)
			case !out.Digested && fam.Golden != 0:
				t.Fatalf("%s has golden pin %016x but its runs carry no digest", fam.Name, fam.Golden)
			case out.Digest != fam.Golden:
				t.Fatalf("%s digest %016x != golden %016x — the change altered simulated behavior", fam.Name, out.Digest, fam.Golden)
			}
		})
	}
}

// TestAblationSpecsValid asserts every grid entry mutates the DK-HW spec
// into a composition BuildStack accepts.
func TestAblationSpecsValid(t *testing.T) {
	specs, err := AblationStackSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(ablationSpecs) {
		t.Fatalf("specs = %d, want %d", len(specs), len(ablationSpecs))
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("ablation %q spec invalid: %v", ablationSpecs[i].name, err)
		}
	}
}
