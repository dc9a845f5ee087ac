package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"ompssgo/internal/obs"
)

// sampleFrames returns one frame of every Frame variant.
func sampleFrames() []*Frame {
	return []*Frame{
		{Hello: &Hello{Worker: 3, PID: 4242, MAC: []byte{0xa, 0xb}, FetchAddr: "unix:/tmp/w3.sock"}},
		{Challenge: &Challenge{Nonce: []byte{1, 2, 3, 4}}},
		{Task: &TaskMsg{
			ID:     7,
			Kernel: "rotate",
			Args:   []byte{1, 2, 3},
			NIn:    1,
			Reads:  []WireRef{{Datum: 1, Ver: 2, Size: 3, Bytes: []byte{9, 8, 7}}, {Datum: 4, Ver: 1, Size: 2}},
			Writes: []WireOut{{Datum: 4, Ver: 5, Size: 2, SeedFrom: 1}},
			Evict:  []CacheKey{{Datum: 9, Ver: 9}},
		}},
		{Chain: &ChainMsg{Tasks: []*TaskMsg{
			{ID: 10, Kernel: "a", Evict: []CacheKey{{Datum: 1, Ver: 1}}},
			{ID: 11, Kernel: "b", Reads: []WireRef{{Datum: 2, Ver: 3, Size: 1}}},
		}}},
		{Fetch: &FetchMsg{Datum: 5, Ver: 6}},
		{Data: &DataMsg{Datum: 5, Ver: 6, Found: true, Bytes: []byte{1}}},
		{Done: &DoneMsg{ID: 7, Outputs: [][]byte{{5, 5}}, Fetches: 1, FetchedBytes: 2, FetchFallbacks: 1}},
		{Done: &DoneMsg{ID: 8, Err: "kernel exploded", Panic: true}},
		{Trace: &TraceMsg{Slot: 1, Events: []obs.Event{{Seq: 1, At: 2, Task: 3, Kind: obs.EvStart, Label: "k"}}, Dropped: 4}},
		{Shutdown: true},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := sampleFrames()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		switch {
		case want.Hello != nil:
			g := got.Hello
			if g == nil || g.Worker != want.Hello.Worker || g.PID != want.Hello.PID ||
				!bytes.Equal(g.MAC, want.Hello.MAC) || g.FetchAddr != want.Hello.FetchAddr {
				t.Fatalf("frame %d: hello mismatch: %+v", i, got.Hello)
			}
		case want.Challenge != nil:
			if got.Challenge == nil || !bytes.Equal(got.Challenge.Nonce, want.Challenge.Nonce) {
				t.Fatalf("frame %d: challenge mismatch: %+v", i, got.Challenge)
			}
		case want.Chain != nil:
			g := got.Chain
			if g == nil || len(g.Tasks) != 2 || g.Tasks[0].ID != 10 || g.Tasks[1].ID != 11 ||
				len(g.Tasks[0].Evict) != 1 || len(g.Tasks[1].Reads) != 1 {
				t.Fatalf("frame %d: chain mismatch: %+v", i, g)
			}
		case want.Fetch != nil:
			if got.Fetch == nil || *got.Fetch != *want.Fetch {
				t.Fatalf("frame %d: fetch mismatch: %+v", i, got.Fetch)
			}
		case want.Data != nil:
			g := got.Data
			if g == nil || g.Datum != 5 || g.Ver != 6 || !g.Found || !bytes.Equal(g.Bytes, []byte{1}) {
				t.Fatalf("frame %d: data mismatch: %+v", i, g)
			}
		case want.Task != nil:
			g := got.Task
			if g == nil || g.ID != want.Task.ID || g.Kernel != want.Task.Kernel ||
				g.NIn != want.Task.NIn || len(g.Reads) != 2 || len(g.Writes) != 1 ||
				!bytes.Equal(g.Reads[0].Bytes, want.Task.Reads[0].Bytes) ||
				g.Reads[1].Bytes != nil ||
				g.Writes[0].SeedFrom != 1 || len(g.Evict) != 1 {
				t.Fatalf("frame %d: task mismatch: %+v", i, g)
			}
		case want.Done != nil:
			g := got.Done
			if g == nil || g.ID != want.Done.ID || g.Err != want.Done.Err || g.Panic != want.Done.Panic ||
				g.Fetches != want.Done.Fetches || g.FetchedBytes != want.Done.FetchedBytes ||
				g.FetchFallbacks != want.Done.FetchFallbacks {
				t.Fatalf("frame %d: done mismatch: %+v", i, g)
			}
		case want.Trace != nil:
			if !reflect.DeepEqual(got.Trace, want.Trace) {
				t.Fatalf("frame %d: trace mismatch: %+v", i, got.Trace)
			}
		case want.Shutdown:
			if !got.Shutdown {
				t.Fatalf("frame %d: want shutdown", i)
			}
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Zero length.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Oversized claimed length.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil ||
		!strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
	// Large claimed length with a short stream must fail cheaply, not
	// allocate the claim.
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	if _, err := ReadFrame(bytes.NewReader(append(hdr[:], 1, 2, 3))); err == nil ||
		!strings.Contains(err.Error(), "short frame") {
		t.Fatalf("short frame not detected: %v", err)
	}
	// Garbage payload of the declared length: decode error, not panic.
	junk := append([]byte{0, 0, 0, 4}, 0xde, 0xad, 0xbe, 0xef)
	if _, err := ReadFrame(bytes.NewReader(junk)); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

// TestCodecStreamRoundTrip sends every Frame variant three times over one
// persistent codec pair. Type descriptors ride only the stream's first
// frame, so that frame is exactly its one-shot encoding, every later frame
// is shorter than its one-shot encoding, and once the descriptors are
// known a repeated frame encodes to the same length.
func TestCodecStreamRoundTrip(t *testing.T) {
	frames := sampleFrames()
	oneShot := make([]int, len(frames))
	for i, f := range frames {
		var b bytes.Buffer
		if err := WriteFrame(&b, f); err != nil {
			t.Fatalf("one-shot write %d: %v", i, err)
		}
		oneShot[i] = b.Len()
	}
	tx, rx := NewCodec(), NewCodec()
	var wire bytes.Buffer
	last := make([]int, len(frames))
	for round := 0; round < 3; round++ {
		for i, f := range frames {
			if err := tx.WriteFrame(&wire, f); err != nil {
				t.Fatalf("round %d frame %d: write: %v", round, i, err)
			}
			n := wire.Len()
			got, err := rx.ReadFrame(&wire)
			if err != nil {
				t.Fatalf("round %d frame %d: read: %v", round, i, err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("round %d frame %d: got %+v, want %+v", round, i, got, f)
			}
			switch {
			case round == 0 && i == 0:
				if n != oneShot[i] {
					t.Fatalf("first frame is %d bytes, one-shot %d", n, oneShot[i])
				}
			case n >= oneShot[i]:
				t.Fatalf("round %d frame %d: %d bytes, not shorter than one-shot %d", round, i, n, oneShot[i])
			}
			if round == 2 && n != last[i] {
				t.Fatalf("round %d frame %d: %d bytes, previous round %d", round, i, n, last[i])
			}
			last[i] = n
		}
	}
	if wire.Len() != 0 {
		t.Fatalf("%d bytes left on the wire", wire.Len())
	}
}

// TestReadFrameRejectsTrailingBytes: a frame whose payload holds bytes
// after its one value is malformed, on both the one-shot and the
// persistent path.
func TestReadFrameRejectsTrailingBytes(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrame(&b, &Frame{Fetch: &FetchMsg{Datum: 1, Ver: 2}}); err != nil {
		t.Fatal(err)
	}
	raw := append(append([]byte(nil), b.Bytes()...), 0)
	binary.BigEndian.PutUint32(raw[:4], uint32(len(raw)-4))
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("one-shot frame with a trailing byte: err = %v", err)
	}

	// Two values in one frame: the persistent encoder's second frame
	// glued onto its first under one length prefix.
	var s bytes.Buffer
	tx := NewCodec()
	tx.WriteFrame(&s, &Frame{Fetch: &FetchMsg{Datum: 1, Ver: 2}})
	tx.WriteFrame(&s, &Frame{Shutdown: true})
	first := binary.BigEndian.Uint32(s.Bytes()[:4])
	glued := append([]byte{0, 0, 0, 0}, s.Bytes()[4:4+first]...)
	glued = append(glued, s.Bytes()[8+first:]...)
	binary.BigEndian.PutUint32(glued[:4], uint32(len(glued)-4))
	rx := NewCodec()
	if _, err := rx.ReadFrame(bytes.NewReader(glued)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("frame holding two values: err = %v", err)
	}
	// The error ends the stream: a well-formed frame after it is refused.
	if _, err := rx.ReadFrame(bytes.NewReader(b.Bytes())); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("read after a stream error: err = %v, want the first error again", err)
	}
}

// FuzzFrameDecode throws arbitrary byte streams at the frame decoder: it
// must return errors, never panic, and on success re-encoding the decoded
// frame must itself succeed (the codec never produces unencodable values).
func FuzzFrameDecode(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, &Frame{Hello: &Hello{Worker: 1, PID: 2, MAC: []byte{3}, FetchAddr: "tcp:127.0.0.1:1"}})
	WriteFrame(&seed, &Frame{Task: &TaskMsg{ID: 1, Kernel: "k", Reads: []WireRef{{Datum: 1, Ver: 1, Size: 1, Bytes: []byte{0}}}}})
	WriteFrame(&seed, &Frame{Shutdown: true})
	f.Add(seed.Bytes())
	var seed2 bytes.Buffer
	WriteFrame(&seed2, &Frame{Challenge: &Challenge{Nonce: []byte{9, 9}}})
	WriteFrame(&seed2, &Frame{Chain: &ChainMsg{Tasks: []*TaskMsg{
		{ID: 2, Kernel: "c", Reads: []WireRef{{Datum: 1, Ver: 1, Size: 1, From: "unix:/x"}}},
		{ID: 3, Kernel: "d"},
	}}})
	WriteFrame(&seed2, &Frame{Fetch: &FetchMsg{Datum: 1, Ver: 2}})
	WriteFrame(&seed2, &Frame{Data: &DataMsg{Datum: 1, Ver: 2, Found: true, Bytes: []byte{7}}})
	WriteFrame(&seed2, &Frame{Done: &DoneMsg{ID: 2, Fetches: 1, FetchedBytes: 1, FetchFallbacks: 1}})
	f.Add(seed2.Bytes())
	f.Add([]byte{0, 0, 0, 1, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				return
			}
			if err := WriteFrame(io.Discard, fr); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
		}
	})
}

// FuzzCodecStream feeds each input through one persistent decoder, the way
// a connection's receive loop reads it: frames share one gob stream, so
// type descriptors from earlier frames govern later ones. The decoder
// must return an error, never panic; its frame buffer never grows past
// what the input actually holds, whatever length a header claims; and
// every decoded frame re-encodes on a persistent encoder.
func FuzzCodecStream(f *testing.F) {
	var all bytes.Buffer
	tx := NewCodec()
	for _, fr := range sampleFrames() {
		tx.WriteFrame(&all, fr)
	}
	f.Add(all.Bytes())
	var steady bytes.Buffer
	tx = NewCodec()
	for i := 0; i < 3; i++ {
		tx.WriteFrame(&steady, &Frame{Task: &TaskMsg{ID: uint64(i), Kernel: "k", NIn: 1,
			Reads:  []WireRef{{Datum: 1, Ver: uint64(i), Size: 2, Bytes: []byte{1, 2}}},
			Writes: []WireOut{{Datum: 2, Ver: uint64(i), Size: 2, SeedFrom: -1}}}})
		tx.WriteFrame(&steady, &Frame{Done: &DoneMsg{ID: uint64(i), Outputs: [][]byte{{3, 4}}}})
	}
	f.Add(steady.Bytes())
	f.Add([]byte{0, 0, 0, 1, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rx, tx := NewCodec(), NewCodec()
		for {
			fr, err := rx.ReadFrame(r)
			if c := rx.rbuf.Cap(); c > 4*(len(data)+bytes.MinRead) {
				t.Fatalf("frame buffer grew to %d bytes on a %d-byte input", c, len(data))
			}
			if err != nil {
				return
			}
			if err := tx.WriteFrame(io.Discard, fr); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
		}
	})
}
