package faults

import (
	"strings"
	"testing"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Drop: 0.1},
		{Drop: 0.1, Dup: 0.05, Corrupt: 0.02, Delay: 0.2, DelayScale: 8},
		{Delay: 0.5},
		{Partitions: []Partition{{Start: 20, End: 60, Lo: 0, Hi: 9}}},
		{Partitions: []Partition{{Start: 20, End: NoHeal, Lo: 3, Hi: 3}, {Start: 5, End: 10, Lo: 0, Hi: 1}}},
		{Crashes: []Crash{{Start: 30, End: 50, Node: 5}, {Start: 0, End: NoHeal, Node: 2}}},
		{Drop: 0.25, Partitions: []Partition{{Start: 1.5, End: 2.25, Lo: 0, Hi: 4}}, Crashes: []Crash{{Start: 3, End: 4, Node: 1}}},
	}
	for _, s := range specs {
		str := s.String()
		got, err := Parse(str)
		if err != nil {
			t.Fatalf("Parse(%q): %v", str, err)
		}
		if got.String() != str {
			t.Fatalf("round trip changed: %q -> %q", str, got.String())
		}
	}
}

func TestSpecParseCanonical(t *testing.T) {
	// Unsorted windows normalize to sorted; "inf" and negative ends
	// both mean NoHeal.
	got, err := Parse("crash=9:inf:1,crash=2:4:7,partition=8:-1:0-3,partition=1:2:5-6,drop=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := "drop=0.5,partition=1:2:5-6,partition=8:inf:0-3,crash=2:4:7,crash=9:inf:1"
	if got.String() != want {
		t.Fatalf("got %q, want %q", got.String(), want)
	}
	if got.Partitions[1].End != NoHeal || got.Crashes[1].End != NoHeal {
		t.Fatalf("NoHeal not normalized: %+v", got)
	}
}

func TestSpecParseZero(t *testing.T) {
	for _, in := range []string{"", "off", "  off  "} {
		s, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if !s.IsZero() {
			t.Fatalf("Parse(%q) = %+v, want zero", in, s)
		}
	}
	if (Spec{}).String() != "off" {
		t.Fatalf("zero spec renders as %q", Spec{}.String())
	}
}

func TestSpecParseErrors(t *testing.T) {
	for _, in := range []string{
		"drop",                // not key=value
		"drop=x",              // bad float
		"drop=1",              // probability must be < 1
		"drop=-0.1",           // negative
		"drop=NaN",            // NaN rejected
		"delayscale=NaN",      //
		"delayscale=1e13",     // over cap
		"bogus=1",             // unknown key
		"partition=1:2",       // missing range
		"partition=1:2:3",     // range not LO-HI
		"partition=2:1:0-3",   // end before start
		"partition=1:2:5-3",   // hi < lo
		"partition=-1:2:0-3",  // negative start
		"crash=1:2:x",         // bad node
		"crash=1:2:-4",        // negative node
		"drop=0.1,,dup=0.1",   // empty field
		"partition=NaN:2:0-3", // NaN start
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestPreservesDelivery(t *testing.T) {
	cases := []struct {
		spec Spec
		want bool
	}{
		{Spec{}, true},
		{Spec{Dup: 0.5, Delay: 0.5, DelayScale: 100}, true},
		{Spec{Drop: 0.01}, false},
		{Spec{Corrupt: 0.01}, false},
		{Spec{Partitions: []Partition{{Start: 1, End: 2, Lo: 0, Hi: 3}}}, true},
		{Spec{Partitions: []Partition{{Start: 1, End: NoHeal, Lo: 0, Hi: 3}}}, false},
		{Spec{Crashes: []Crash{{Start: 1, End: 2, Node: 0}}}, true},
		{Spec{Crashes: []Crash{{Start: 1, End: NoHeal, Node: 0}}}, false},
	}
	for _, c := range cases {
		if got := c.spec.PreservesDelivery(); got != c.want {
			t.Errorf("PreservesDelivery(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestSpecStringStable(t *testing.T) {
	// The canonical form is part of the replay-file format; freeze it.
	s := Spec{Drop: 0.1, Dup: 0.05, Corrupt: 0.02, Delay: 0.2, DelayScale: 8,
		Partitions: []Partition{{Start: 20, End: 60, Lo: 0, Hi: 9}},
		Crashes:    []Crash{{Start: 30, End: NoHeal, Node: 5}}}
	want := "drop=0.1,dup=0.05,corrupt=0.02,delay=0.2,delayscale=8,partition=20:60:0-9,crash=30:inf:5"
	if s.String() != want {
		t.Fatalf("canonical form drifted:\n got %q\nwant %q", s.String(), want)
	}
	if !strings.Contains(want, "inf") {
		t.Fatal("sanity")
	}
}
