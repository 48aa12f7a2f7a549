package simnet

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"overlaymatch/internal/rng"
)

// byteArrayCodec is a codec for the array type [size]byte, whose
// payload is the array's bytes.
func byteArrayCodec(size int) Codec {
	typ := reflect.ArrayOf(size, reflect.TypeOf(byte(0)))
	return Codec{
		Name:    fmt.Sprintf("test.bytes%d", size),
		Version: 1,
		Type:    typ,
		Encode: func(msg Message, buf []byte) []byte {
			v := reflect.ValueOf(msg)
			for i := 0; i < v.Len(); i++ {
				buf = append(buf, byte(v.Index(i).Uint()))
			}
			return buf
		},
		Decode: func(payload []byte) (Message, error) {
			if len(payload) != size {
				return nil, fmt.Errorf("payload is %d bytes, want %d", len(payload), size)
			}
			v := reflect.New(typ).Elem()
			reflect.Copy(v, reflect.ValueOf(payload))
			return v.Interface(), nil
		},
		Sample: func(*rng.Source) Message { return reflect.Zero(typ).Interface() },
	}
}

// TestRegisterRacesLookups: Register publishes new tables while other
// goroutines encode and decode through the same registry. Under -race
// (make race-core) a reader that shared a map with the writer fails;
// without it, every reader must still see a whole table, old or new. A
// private registry keeps the test's codecs out of the global one.
func TestRegisterRacesLookups(t *testing.T) {
	const codecs = 64
	var reg codecRegistry
	raw, _ := CodecByID(IDRaw)
	reg.register(IDRaw, raw)
	fresh := make([]Codec, codecs)
	for i := range fresh {
		fresh[i] = byteArrayCodec(i + 1)
	}

	roundTrip := func(msg Message) error {
		frame, err := reg.appendFrame(nil, msg)
		if err != nil {
			return err
		}
		got, used, err := reg.decodeFrame(frame)
		if err != nil || used != len(frame) || !reflect.DeepEqual(got, msg) {
			return fmt.Errorf("%T round trip: got %v, %d of %d bytes, %v", msg, got, used, len(frame), err)
		}
		return nil
	}
	var readers, started sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		readers.Add(1)
		started.Add(1)
		go func(g int) {
			defer readers.Done()
			started.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				// A type not registered yet fails with "no codec"; Raw,
				// registered first, always round-trips.
				msg := reflect.Zero(fresh[(k*7+g)%codecs].Type).Interface()
				if err := roundTrip(msg); err != nil && !strings.Contains(err.Error(), "no codec registered") {
					t.Error(err)
					return
				}
				if err := roundTrip(Raw{byte(k)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	started.Wait()
	for i, c := range fresh {
		reg.register(0x7000+uint16(i), c)
	}
	close(done)
	readers.Wait()

	for _, c := range fresh {
		if err := roundTrip(reflect.Zero(c.Type).Interface()); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(reg.load().byID); got != codecs+1 {
		t.Fatalf("registry holds %d codecs, want %d", got, codecs+1)
	}
}
