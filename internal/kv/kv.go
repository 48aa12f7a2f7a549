// Package kv is the one grammar of the repository's flag-friendly
// specs: a comma-separated list of key=value clauses, as in the fault
// adversary ("drop=0.1,partition=20:60:0-9"), the heartbeat detector
// ("hb=5,ticks=64"), the churn feed ("events=200,rate=2"), a scenario
// family's parameters ("swarm:n=512,zipf=1.4") and overlaynode's peer
// routes ("1=127.0.0.1:7001"). Each caller keeps its own keys and
// value checks; the tokenizing, the trimming and the repeated-key rule
// live here, so every grammar accepts the same spacing and reports the
// same mistakes the same way.
package kv

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Field is one key=value clause, with the spaces around the key and
// the value trimmed.
type Field struct {
	Key, Val string
	prefix   string // the caller's error prefix
}

// Split tokenizes a comma-separated key=value list. Spaces around
// every clause, key and value are trimmed. An empty clause, a clause
// without '=' and a repeated key are errors, except that a key named
// in repeatable may appear any number of times. Every error starts
// with prefix.
func Split(prefix, list string, repeatable ...string) ([]Field, error) {
	clauses := strings.Split(list, ",")
	fields := make([]Field, 0, len(clauses))
	seen := make(map[string]bool, len(clauses))
	for _, clause := range clauses {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			return nil, fmt.Errorf("%s: empty clause in %q", prefix, list)
		}
		k, v, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("%s: clause %q is not key=value", prefix, clause)
		}
		f := Field{Key: strings.TrimSpace(k), Val: strings.TrimSpace(v), prefix: prefix}
		if seen[f.Key] {
			return nil, fmt.Errorf("%s: key %q repeated", prefix, f.Key)
		}
		if !slices.Contains(repeatable, f.Key) {
			seen[f.Key] = true
		}
		fields = append(fields, f)
	}
	return fields, nil
}

// Float parses the value as a float64 (strconv.ParseFloat's syntax).
func (f Field) Float() (float64, error) {
	v, err := strconv.ParseFloat(f.Val, 64)
	if err != nil {
		return 0, f.Errorf("%v", err)
	}
	return v, nil
}

// Int parses the value as a decimal int (strconv.Atoi's syntax).
func (f Field) Int() (int, error) {
	v, err := strconv.Atoi(f.Val)
	if err != nil {
		return 0, f.Errorf("%v", err)
	}
	return v, nil
}

// Errorf returns an error about the field: the caller's prefix, the
// key, then the formatted message.
func (f Field) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %s: %s", f.prefix, f.Key, fmt.Sprintf(format, args...))
}

// FormatFloat renders a float in the shortest form that parses back to
// the same value: the form every spec's String uses, so that
// Parse(String()) round-trips. Integer fields render with
// strconv.Itoa, which also reads back through Field.Int.
func FormatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
