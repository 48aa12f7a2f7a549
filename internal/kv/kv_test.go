package kv_test

import (
	"reflect"
	"strings"
	"testing"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/kv"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/workload"
)

func TestSplit(t *testing.T) {
	got, err := kv.Split("p", " a = 1 ,b=x=y, c= ,f=0.5,part=1,part=2", "part")
	if err != nil {
		t.Fatal(err)
	}
	var keys, vals []string
	for _, f := range got {
		keys = append(keys, f.Key)
		vals = append(vals, f.Val)
	}
	if !reflect.DeepEqual(keys, []string{"a", "b", "c", "f", "part", "part"}) ||
		!reflect.DeepEqual(vals, []string{"1", "x=y", "", "0.5", "1", "2"}) {
		t.Fatalf("Split = keys %q vals %q", keys, vals)
	}
	if v, err := got[0].Int(); err != nil || v != 1 {
		t.Fatalf("Int = %v, %v", v, err)
	}
	if v, err := got[3].Float(); err != nil || v != 0.5 {
		t.Fatalf("Float = %v, %v", v, err)
	}
	for _, err := range []error{first(got[1].Int()), first(got[1].Float())} {
		if err == nil || !strings.HasPrefix(err.Error(), "p: b: ") {
			t.Errorf("error %v does not start with the prefix and the key", err)
		}
	}
	for _, c := range []struct{ in, want string }{
		{"", "p: empty clause"},
		{"a=1,,b=2", "p: empty clause"},
		{"a=1,", "p: empty clause"},
		{"a", `p: clause "a" is not key=value`},
		{"a=1, a =2", `p: key "a" repeated`},
	} {
		if _, err := kv.Split("p", c.in); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Split(%q) = %v, want an error starting %q", c.in, err, c.want)
		}
	}
}

func first[T any](_ T, err error) error { return err }

// TestGrammarsShareOneTokenizer: every spec grammar reads a spaced
// form as its compact form and rejects a repeated key by name. The
// scheduler grammar has no keys: it trims its name, and its deleted
// batch=N form fails naming batch. overlaynode's -peers grammar lives
// in a main package, and its own TestParsePeers and
// TestParsePeersRejectsMalformed check the same two rules.
func TestGrammarsShareOneTokenizer(t *testing.T) {
	for _, g := range []struct {
		name                    string
		parse                   func(string) (any, error)
		spaced, compact, repeat string
		wantErr                 string
	}{
		{"faults", func(s string) (any, error) { return faults.Parse(s) },
			"drop = 0.1", "drop=0.1", "drop=0.1,drop=0.2", `key "drop" repeated`},
		{"detector", func(s string) (any, error) { return detector.Parse(s) },
			"hb = 5", "hb=5", "hb=5,hb=6", `key "hb" repeated`},
		{"churn", func(s string) (any, error) { return dynamic.ParseChurnSpec(s) },
			"events = 5", "events=5", "events=5,events=6", `key "events" repeated`},
		{"workload", func(s string) (any, error) { return workload.Parse(s) },
			"swarm:n = 64", "swarm:n=64", "swarm:n=64,n=65", `key "n" repeated`},
		{"scheduler", func(s string) (any, error) { return lid.ParseSchedulerSpec(s) },
			" greedy ", "greedy", "greedy:batch=4,batch=5", "batch"},
	} {
		want, err := g.parse(g.compact)
		if err != nil {
			t.Fatalf("%s: compact form %q: %v", g.name, g.compact, err)
		}
		got, err := g.parse(g.spaced)
		if err != nil {
			t.Errorf("%s: spaced form %q: %v", g.name, g.spaced, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: spaced form %q parses to %+v, compact %q to %+v", g.name, g.spaced, got, g.compact, want)
		}
		if _, err := g.parse(g.repeat); err == nil || !strings.Contains(err.Error(), g.wantErr) {
			t.Errorf("%s: %q gave error %v, want one containing %q", g.name, g.repeat, err, g.wantErr)
		}
	}
}
