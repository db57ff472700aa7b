package topology

import (
	"errors"
	"testing"
)

func TestLoadEmbedded(t *testing.T) {
	wantSizes := map[string][2]int{
		Abilene: {11, 14},
		NSFNET:  {14, 21},
		GEANT:   {23, 37},
		AARNet:  {19, 24},
		ATTNA:   {25, 57},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			g, err := Load(name)
			if err != nil {
				t.Fatalf("Load(%q): %v", name, err)
			}
			want := wantSizes[name]
			if g.Nodes() != want[0] || g.EdgeCount() != want[1] {
				t.Errorf("size = (%d,%d), want (%d,%d)", g.Nodes(), g.EdgeCount(), want[0], want[1])
			}
			if !g.Connected() {
				t.Error("embedded topology disconnected")
			}
			if g.Name() != name {
				t.Errorf("Name() = %q, want %q", g.Name(), name)
			}
		})
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := MustLoad(GEANT)
	b := MustLoad(GEANT)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nope"); !errors.Is(err, ErrUnknown) {
		t.Errorf("Load(unknown) err = %v, want ErrUnknown", err)
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLoad(unknown) did not panic")
		}
	}()
	MustLoad("nope")
}

func TestPlaceCloudletsByDegree(t *testing.T) {
	g := MustLoad(NSFNET)
	sites, err := PlaceCloudletsByDegree(g, 5)
	if err != nil {
		t.Fatalf("PlaceCloudletsByDegree: %v", err)
	}
	if len(sites) != 5 {
		t.Fatalf("got %d sites, want 5", len(sites))
	}
	// Sites must be ordered by non-increasing degree.
	for i := 1; i < len(sites); i++ {
		if g.Degree(sites[i]) > g.Degree(sites[i-1]) {
			t.Errorf("sites not degree-ordered: %v", sites)
		}
	}
	if _, err := PlaceCloudletsByDegree(g, 0); !errors.Is(err, ErrBadNode) {
		t.Errorf("k=0 err = %v, want ErrBadNode", err)
	}
	if _, err := PlaceCloudletsByDegree(g, 99); !errors.Is(err, ErrBadNode) {
		t.Errorf("k too large err = %v, want ErrBadNode", err)
	}
}
