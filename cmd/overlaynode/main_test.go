package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"overlaymatch/internal/reliable"
	"overlaymatch/internal/workload"
)

func TestParsePeers(t *testing.T) {
	for _, in := range []string{"1=127.0.0.1:7001,2=127.0.0.1:7002", "1 = 127.0.0.1:7001 , 2=127.0.0.1:7002"} {
		peers, err := parsePeers(in)
		if err != nil {
			t.Fatalf("parsePeers(%q): %v", in, err)
		}
		if len(peers) != 2 || peers[1] != "127.0.0.1:7001" || peers[2] != "127.0.0.1:7002" {
			t.Fatalf("parsePeers(%q) = %v", in, peers)
		}
	}
	if peers, err := parsePeers(""); err != nil || len(peers) != 0 {
		t.Fatalf("empty -peers should parse to an empty table, got %v, %v", peers, err)
	}
}

func TestParsePeersRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"no equals", "127.0.0.1:7001", "not key=value"},
		{"non-numeric id", "x=127.0.0.1:7001", "not a number"},
		{"empty address", "1=", "empty address"},
		{"empty entry", "1=127.0.0.1:7001,", "empty clause"},
		{"repeated id", "1=127.0.0.1:7001,1=127.0.0.1:7002", `"1" repeated`},
		{"duplicate id", "1=127.0.0.1:7001,01=127.0.0.1:7002", "appears twice"},
	}
	for _, tc := range cases {
		_, err := parsePeers(tc.in)
		if err == nil {
			t.Errorf("%s: parsePeers(%q) accepted", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	full := map[int]string{1: "127.0.0.1:7001", 2: "127.0.0.1:7002"}
	rel := reliable.Config{RTO: 30}
	if err := validate("127.0.0.1:7000", 0, 3, full, rel); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	cases := []struct {
		name   string
		listen string
		nodeID int
		n      int
		peers  map[int]string
		want   string
	}{
		{"empty listen", "", 0, 3, full, "-listen is required"},
		{"zero n", "127.0.0.1:7000", 0, 0, nil, "must be positive"},
		{"negative node id", "127.0.0.1:7000", -1, 3, full, "outside"},
		{"node id beyond n", "127.0.0.1:7000", 3, 3, full, "outside"},
		{"peer id beyond n", "127.0.0.1:7000", 0, 2, map[int]string{1: "a:1", 5: "b:2"}, "outside"},
		{"missing route", "127.0.0.1:7000", 0, 3, map[int]string{1: "a:1"}, "missing a route for node 2"},
	}
	for _, tc := range cases {
		err := validate(tc.listen, tc.nodeID, tc.n, tc.peers, rel)
		if err == nil {
			t.Errorf("%s: validate accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A zero -rto once died in the reliable layer with a panic and a
	// stack trace; NaN and +Inf break the retransmission timer.
	for _, rto := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		err := validate("127.0.0.1:7000", 0, 3, full, reliable.Config{RTO: rto})
		if err == nil || !strings.Contains(err.Error(), "-rto") {
			t.Errorf("-rto %v: error %v does not name the flag", rto, err)
		}
	}
}

// TestInstanceFlagsBuildTheSharedRecipe: every row of
// cmd/testdata/instance_flags.json that names only overlaynode's flags
// parses into exactly the row's workload.Synthetic, whose Build is the
// system every node runs — the system overlaysim and graphgen -format
// workload build for the same flags (their tests check the same rows).
// The -k/-beta, -rows and -edges rows are not overlaynode's.
func TestInstanceFlagsBuildTheSharedRecipe(t *testing.T) {
	data, err := os.ReadFile("../testdata/instance_flags.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Args string
		Spec workload.Synthetic
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, row := range rows {
		fs := flag.NewFlagSet("overlaynode", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		spec := instanceFlags(fs)
		if err := fs.Parse(strings.Fields(row.Args)); err != nil {
			rejected++
			continue
		}
		if *spec != row.Spec {
			t.Errorf("%s: overlaynode builds %+v, not %+v", row.Args, *spec, row.Spec)
		}
	}
	if rejected != 3 {
		t.Fatalf("%d rows name a flag overlaynode lacks, want 3", rejected)
	}
}
