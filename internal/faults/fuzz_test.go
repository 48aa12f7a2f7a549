package faults

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzFaultSpecParse checks the spec grammar's core contract: anything
// Parse accepts must render to a canonical string that re-parses to
// the same canonical string (Parse ∘ String is the identity on parsed
// specs), must validate, and String must never panic. The canonical
// string must not depend on the order the windows were given in: the
// spec with its partitions and crashes reversed renders the same.
func FuzzFaultSpecParse(f *testing.F) {
	f.Add("")
	f.Add("off")
	f.Add("drop=0.1")
	f.Add("drop=0.1,dup=0.05,corrupt=0.02,delay=0.2,delayscale=8")
	f.Add("partition=20:60:0-9")
	f.Add("partition=20:inf:0-9,crash=30:50:5")
	f.Add("crash=0:inf:0")
	f.Add("drop=1")
	f.Add("drop=NaN")
	f.Add("delayscale=1e300")
	f.Add("partition=1:2:3-")
	f.Add("crash=:::")
	// Windows that tie on (Start, Lo) and on (Start, Node), and two
	// starts that compare equal but are written apart.
	f.Add("crash=5:inf:2,crash=5:9:2,partition=0:20:0-5,partition=0:10:0-3")
	f.Add("partition=-0:1:0-0,partition=0:1:0-0")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return // rejected input is fine; not panicking is the point
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted an invalid spec: %v", in, verr)
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q (from %q) does not re-parse: %v", canon, in, err)
		}
		if s2.String() != canon {
			t.Fatalf("canonical form unstable: %q -> %q", canon, s2.String())
		}
		rev := s
		rev.Partitions, rev.Crashes = slices.Clone(s.Partitions), slices.Clone(s.Crashes)
		slices.Reverse(rev.Partitions)
		slices.Reverse(rev.Crashes)
		if got := rev.String(); got != canon {
			t.Fatalf("windows of %q in reverse order render %q, want %q", in, got, canon)
		}
	})
}

// FuzzReplayFile checks the strict loader: arbitrary bytes must never
// panic — they either load as a fully valid replay file or return an
// error. Anything that loads must survive Validate and re-Save.
func FuzzReplayFile(f *testing.F) {
	// Version-1 files name their instance in the recipe before
	// workload.Synthetic and are rejected; their version-2 copies load.
	f.Add([]byte(`{"version":1,"workload":{"topology":"gnp","n":10,"b":1,"metric":"random","seed":3},"seed":7,"spec":"dup=0.3","events":[{"seq":4,"kind":"dup","copies":1}]}`))
	f.Add([]byte(`{"version":1,"workload":{"topology":"ring","n":5,"b":1,"metric":"random"},"spec":"off","events":[]}`))
	f.Add([]byte(`{"version":2,"workload":{"topology":"gnp","n":10,"b":1,"metric":"random","seed":3},"seed":7,"spec":"dup=0.3","events":[{"seq":4,"kind":"dup","copies":1}]}`))
	f.Add([]byte(`{"version":2,"workload":{"topology":"ring","n":5,"b":1,"metric":"random"},"spec":"off","events":[]}`))
	f.Add([]byte(`{"version":2,"workload":{"topology":"ws","n":12,"b":2,"metric":"transactions","k":4,"beta":0.5},"spec":"off","events":[]}`))
	// Over-size: G(2^20, 1) would expand about 5.5e11 edges.
	f.Add([]byte(`{"version":2,"workload":{"topology":"gnp","n":1048576,"b":1,"metric":"random","p":1},"spec":"off","events":[]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"version":1,"workload":{"topology":"gnp","n":-1,"b":1,"metric":"random"},"spec":"off","events":[]}`))
	f.Add([]byte(`{"version":1,"workload":{"topology":"gnp","n":10,"b":1,"metric":"random"},"spec":"off","events":[{"seq":0,"kind":"delay","delay":1e308}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rf, err := LoadReplay(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := rf.Validate(); verr != nil {
			t.Fatalf("LoadReplay accepted a file Validate rejects: %v", verr)
		}
		var buf bytes.Buffer
		if serr := rf.Save(&buf); serr != nil {
			t.Fatalf("loaded file does not re-save: %v", serr)
		}
		if _, rerr := LoadReplay(bytes.NewReader(buf.Bytes())); rerr != nil {
			t.Fatalf("re-saved file does not re-load: %v", rerr)
		}
	})
}
