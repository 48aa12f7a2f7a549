package dynamic

import "testing"

func TestChurnSpecParseErrors(t *testing.T) {
	for _, in := range []string{
		"events",                // not key=value
		"events=x",              // bad int
		"events=0",              // no events
		"leave=0.5",             // events missing
		"events=10,bogus=1",     // unknown key
		"events=10,leave=1.5",   // probability out of range
		"events=10,rate=0",      // rate must be positive
		"events=10,minalive=-2", // negative floor
		"events=5,,rate=2",      // empty clause
		"events=5,",             // trailing empty clause
		",,,",                   // nothing but empty clauses
		"events=5,events=9",     // repeated key
		"events=10,rate=2,rate=2",
	} {
		if s, err := ParseChurnSpec(in); err == nil {
			t.Errorf("ParseChurnSpec(%q) = %v, want error", in, s)
		}
	}
}
