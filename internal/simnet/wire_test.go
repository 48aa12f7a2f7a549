package simnet_test

// The Runner's side of the wire format: every send billed by its encoded
// frame, and no send without a codec. An external test package, so it
// can import lid and reliable for their registered codecs.

import (
	"fmt"
	"strings"
	"testing"

	"overlaymatch/internal/lid"
	_ "overlaymatch/internal/reliable"
	"overlaymatch/internal/simnet"
)

// unregistered is a message type deliberately missing from the registry.
type unregistered struct{}

// dupPolicy delivers every send twice.
type dupPolicy struct{}

func (dupPolicy) Verdict(float64, int, int, simnet.Message) simnet.LinkVerdict {
	return simnet.LinkVerdict{Copies: 1}
}

// TestRunnerBillsEncodedFrames: the Runner bills every send by the
// length of its encoded frame, header included, in the byte total and
// per kind; a policy duplicate is billed once, like its message count.
func TestRunnerBillsEncodedFrames(t *testing.T) {
	lidFrame, err := simnet.EncodeFrame(lid.Msg{IsProp: true})
	if err != nil {
		t.Fatal(err)
	}
	// reliable's frame types are unexported: build a DATA frame nesting
	// the LID frame, and its ACK, through their registered codecs.
	decode := func(id uint16, payload []byte) simnet.Message {
		c, ok := simnet.CodecByID(id)
		if !ok {
			t.Fatalf("no codec under %#04x", id)
		}
		m, err := c.Decode(payload)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		return m
	}
	sends := []struct {
		msg  simnet.Message
		kind string
		size int
	}{
		{simnet.Raw{}, "RAW", 7},
		{simnet.Raw{0xAB}, "RAW", 8},
		{simnet.Raw(make([]byte, 24)), "RAW", 31},
		{decode(simnet.IDReliableData, append([]byte{0, 0, 0, 1}, lidFrame...)), "PROP", 19},
		{decode(simnet.IDReliableAck, []byte{0, 0, 0, 1}), "ACK", 11},
	}
	var total int64
	byKind := map[string]int64{}
	for _, s := range sends {
		frame, err := simnet.EncodeFrame(s.msg)
		if err != nil {
			t.Fatalf("%T: %v", s.msg, err)
		}
		if len(frame) != s.size {
			t.Fatalf("%T frame is %d bytes, want %d", s.msg, len(frame), s.size)
		}
		total += int64(len(frame))
		byKind[s.kind] += int64(len(frame))
	}
	sender := initHandler(func(ctx simnet.Context) {
		for _, s := range sends {
			ctx.Send(1, s.msg)
		}
		ctx.Halt()
	})
	receiver := initHandler(func(ctx simnet.Context) { ctx.Halt() })
	r := simnet.NewRunner(2, simnet.Options{Seed: 1, Policy: dupPolicy{}})
	stats, err := r.Run([]simnet.Handler{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deliveries != 2*len(sends) {
		t.Fatalf("%d deliveries, want %d: the policy duplicates every send", stats.Deliveries, 2*len(sends))
	}
	msgs, bytes := r.SentTotals()
	if msgs != int64(len(sends)) || bytes != total {
		t.Fatalf("SentTotals = (%d, %d), want (%d, %d)", msgs, bytes, len(sends), total)
	}
	fam := r.Metrics().Family("simnet_sent_bytes_by_kind", "", "kind")
	for kind, want := range byKind {
		if got := fam.Value(kind); got != want {
			t.Fatalf("simnet_sent_bytes_by_kind{kind=%q} = %d, want %d", kind, got, want)
		}
	}
}

// TestRunnerUnregisteredTypePanics: a message with no wire form fails
// at the send site on the Runner with the error a Cluster gives, naming
// the sender and the type.
func TestRunnerUnregisteredTypePanics(t *testing.T) {
	var recovered any
	sender := initHandler(func(ctx simnet.Context) {
		defer func() {
			recovered = recover()
			ctx.Halt()
		}()
		ctx.Send(1, unregistered{})
	})
	receiver := initHandler(func(ctx simnet.Context) { ctx.Halt() })
	r := simnet.NewRunner(2, simnet.Options{Seed: 1})
	stats, err := r.Run([]simnet.Handler{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	msg := fmt.Sprint(recovered)
	for _, want := range []string{"no codec registered", "node 0", "simnet_test.unregistered"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Send of an unregistered type: recovered %q, want it to contain %q", msg, want)
		}
	}
	if stats.TotalSent() != 0 || stats.Deliveries != 0 {
		t.Fatalf("a rejected send was counted: %v", stats)
	}
}

// initHandler runs a closure at Init and ignores deliveries.
type initHandler func(simnet.Context)

func (h initHandler) Init(ctx simnet.Context)                         { h(ctx) }
func (initHandler) HandleMessage(simnet.Context, int, simnet.Message) {}
