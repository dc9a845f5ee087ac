// Package dist is the multi-process execution domain: a coordinator
// process runs the dependence tracker (the same internal/core graph the
// native and simulated backends drive) while N worker processes — child
// processes of the same binary, connected over Unix domain sockets —
// execute task bodies against migrated datum versions.
//
// Ownership and transfer are driven by the version chains of the renaming
// layer (internal/core/rename.go): every registered datum is a renameable
// []byte payload whose canonical storage lives in the coordinator. A task
// dispatched to worker W triggers copy-in of the version instances its
// clauses bind; a per-worker cache keyed by (datum, version) makes
// repeated readers of the same instance free; a writer produces a new
// version whose bytes ride back on the completion message; and chain drain
// writes the program-order last good instance back onto canonical storage
// exactly as it does in-process. Poisoned-writer and skip-on-error
// semantics carry over the wire unchanged: a task failure (or a worker
// crash, surfaced as WorkerLost) poisons its output version, skips its
// dependents, and leaves every other worker's tasks executing.
//
// Task bodies are closures and do not serialize, so execution is by
// registered kernel name plus opaque serialized args: both the coordinator
// and the workers run the same binary, the program registers its kernels
// at init (RegisterKernel), and MaybeWorker diverts a child process into
// the worker loop before main proper runs.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"ompssgo/internal/obs"
)

// MaxFrame bounds one frame's payload. The largest legitimate frame
// carries one task's copy-in set or one task's produced outputs — tens of
// megabytes for the suite's default workloads — so the cap is generous
// while still refusing absurd lengths from a corrupt or hostile stream
// before any decoding work happens.
const MaxFrame = 256 << 20

// Hello is the worker's first frame on any connection: which worker slot
// it claims, authenticated by MAC — the HMAC-SHA256 of the server's
// Challenge nonce and the slot under the run's shared secret. A listener
// refuses a Hello whose MAC does not verify. FetchAddr is the worker's
// own peer-fetch listener ("net:addr"), where other workers may dial in
// to copy cached datum versions directly (see WireRef.From).
type Hello struct {
	Worker    int
	PID       int
	MAC       []byte
	FetchAddr string
	// Now is the worker's monotonic clock reading (nanoseconds since its
	// own trace epoch) sampled while composing this Hello. The server side
	// timestamps the challenge round-trip around it, which yields an
	// NTP-style offset estimate good to half the round-trip time — the
	// clock-alignment contract merged distributed traces rely on.
	Now int64
}

// Challenge is the server's first frame on any inbound connection: a
// fresh random nonce the dialing side must MAC in its Hello. Both the
// coordinator's listener and every worker's peer-fetch listener speak it,
// so no unauthenticated peer can submit work, claim a slot, or read
// cached payloads.
type Challenge struct {
	Nonce []byte
}

// WireRef names one datum version a task observes. Bytes carries the
// content on a cache miss; nil means the worker already holds the
// (Datum, Ver) pair in its version cache (the coordinator mirrors every
// worker's cache deterministically, so it knows). A non-empty From with
// nil Bytes is a forwarding directive: the pair is resident on the peer
// worker whose fetch address From names, and the worker should copy it
// from there directly instead of having the coordinator relay the
// payload. If the peer is gone or has since dropped the pair, the worker
// falls back to a Fetch round-trip with the coordinator, which always
// holds the content.
type WireRef struct {
	Datum uint64
	Ver   uint64
	Size  int64
	Bytes []byte
	From  string
}

// WireOut names one datum version a task produces. The worker allocates
// the buffer; SeedFrom >= 0 seeds it from that index of the task's read
// set (the InOut copy-in), -1 leaves it zeroed (a pure Out overwrites by
// contract).
type WireOut struct {
	Datum    uint64
	Ver      uint64
	Size     int64
	SeedFrom int
}

// CacheKey identifies one cached payload instance.
type CacheKey struct {
	Datum uint64
	Ver   uint64
}

// TaskMsg dispatches one task. Reads is the transfer set in clause order:
// the first NIn entries are the kernel-visible In clauses (passed as in[]
// in that order), the rest are InOut read versions present only to seed
// outputs and the cache. Writes is one entry per Out/InOut clause in
// clause order (the kernel's out[]). Evict lists cache entries the worker
// must drop before inserting this task's reads — eviction is always
// coordinator-directed, which is what keeps the coordinator's mirror and
// the worker's cache in lockstep.
type TaskMsg struct {
	ID     uint64
	Kernel string
	Args   []byte
	NIn    int
	Reads  []WireRef
	Writes []WireOut
	Evict  []CacheKey
}

// ChainMsg dispatches a whole ready sub-DAG in one frame: Tasks in
// execution order, each link's sole unfinished predecessor being the link
// before it. The worker executes the links locally in order, reporting a
// DoneMsg per link; a failing link aborts the remainder (the coordinator
// resolves the unexecuted links as skipped — they depend on the failure).
// Only the first link carries an Evict list: the eviction plan is
// computed once against the whole chain's pinned set.
type ChainMsg struct {
	Tasks []*TaskMsg
}

// FetchMsg asks the receiving side for the bytes of one cached datum
// version. Worker→coordinator it is the relay fallback of a forwarding
// directive whose peer went away; worker→worker (on a peer-fetch
// connection) it is the forward itself.
type FetchMsg struct {
	Datum uint64
	Ver   uint64
}

// DataMsg answers a FetchMsg. Found is false when the responder no longer
// holds the pair (a peer that evicted it between the coordinator's plan
// and the fetch); the coordinator's relay always finds it.
type DataMsg struct {
	Datum uint64
	Ver   uint64
	Found bool
	Bytes []byte
}

// DoneMsg reports one task's completion. Outputs carries the produced
// bytes, one per TaskMsg.Writes entry, empty when Err is set (a failed
// writer's output is undefined and never leaves the worker — the wire
// form of the poisoned-writer rule). FetchedBytes and Fetches account the
// payload bytes this task's reads pulled directly from peer workers;
// FetchFallbacks counts forwarding directives that fell back to a
// coordinator relay.
type DoneMsg struct {
	ID             uint64
	Err            string
	Panic          bool
	Outputs        [][]byte
	Fetches        int
	FetchedBytes   int64
	FetchFallbacks int
	// Events piggybacks the worker-side trace batch recorded since the
	// previous Done (empty when the worker is not tracing). Timestamps are
	// on the worker's own clock; the coordinator realigns them with the
	// handshake offset at merge time. EventsDropped counts ring overflow
	// on the worker since the last drain.
	Events        []obs.Event
	EventsDropped uint64
}

// TraceMsg is the worker's final trace drain, sent right before it exits
// on Shutdown (or before a quiet EOF exit): whatever events accumulated
// after the last Done, plus the residual drop count. Slot names the
// sending worker so a coordinator can bucket it without connection state.
type TraceMsg struct {
	Slot    int
	Events  []obs.Event
	Dropped uint64
}

// Frame is the single message envelope every connection uses: exactly one
// field is set (Shutdown is the coordinator's drain order).
type Frame struct {
	Hello     *Hello
	Challenge *Challenge
	Task      *TaskMsg
	Chain     *ChainMsg
	Fetch     *FetchMsg
	Data      *DataMsg
	Done      *DoneMsg
	Trace     *TraceMsg
	Shutdown  bool
}

// Codec is one connection's persistent gob streams: an encoder for the
// frames it sends and a decoder for the frames it receives, each over a
// reused buffer. Each direction is one gob stream for the connection's
// life, so type descriptors cross the wire once, on the first frame that
// needs them, and every later frame carries only its value. Framing is
// unchanged: a 4-byte big-endian payload length, then the gob bytes of
// exactly one Frame.
//
// The two halves are independent and each is single-threaded: WriteFrame
// is called under the owner's send lock, ReadFrame only from the
// connection's single receive loop. Any error leaves that stream's gob
// state undefined, so it ends the connection: errors are sticky, and every
// later call in that direction returns the first one.
type Codec struct {
	enc  *gob.Encoder
	wbuf bytes.Buffer
	werr error

	dec  *gob.Decoder
	rbuf bytes.Buffer
	rerr error
}

// NewCodec returns a codec whose streams start fresh in both directions;
// the peer's codec must start at the same frame. Each direction's gob
// state is built on its first frame, so a one-shot codec pays only for
// the direction it uses.
func NewCodec() *Codec { return &Codec{} }

// WriteFrame encodes f as the stream's next length-prefixed frame and
// writes it to w in a single call.
func (c *Codec) WriteFrame(w io.Writer, f *Frame) error {
	if c.werr != nil {
		return c.werr
	}
	if c.enc == nil {
		c.enc = gob.NewEncoder(&c.wbuf)
	}
	c.wbuf.Reset()
	c.wbuf.Write([]byte{0, 0, 0, 0}) // length backpatched below
	if err := c.enc.Encode(f); err != nil {
		c.werr = fmt.Errorf("dist: encode frame: %w", err)
		return c.werr
	}
	n := c.wbuf.Len() - 4
	if n > MaxFrame {
		// The encoder may have recorded type descriptors that will now
		// never be sent, so the stream cannot continue.
		c.werr = fmt.Errorf("dist: frame of %d bytes exceeds MaxFrame (%d)", n, MaxFrame)
		return c.werr
	}
	b := c.wbuf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	if _, err := w.Write(b); err != nil {
		c.werr = err
		return err
	}
	return nil
}

// ReadFrame decodes the stream's next frame from r. It returns io.EOF
// untouched on a clean end of stream. Hostile input cannot make it panic
// or allocate past the declared (capped) length: the length is checked
// before any payload is read, the payload is drained with CopyN — so a
// garbage length with a short stream costs only the bytes actually
// present — and gob decoding errors are returned, not thrown. A frame
// whose payload holds bytes beyond its one value is malformed.
func (c *Codec) ReadFrame(r io.Reader) (*Frame, error) {
	if c.rerr != nil {
		return nil, c.rerr
	}
	f, err := c.readFrame(r)
	c.rerr = err
	return f, err
}

func (c *Codec) readFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("dist: bad frame length %d", n)
	}
	c.rbuf.Reset()
	if _, err := io.CopyN(&c.rbuf, r, int64(n)); err != nil {
		return nil, fmt.Errorf("dist: short frame: %w", err)
	}
	if c.dec == nil {
		c.dec = gob.NewDecoder(&c.rbuf) // rbuf is an io.ByteReader: no read-ahead wrapper
	}
	var f Frame
	if err := c.dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("dist: decode frame: %w", err)
	}
	if c.rbuf.Len() != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes after frame", c.rbuf.Len())
	}
	return &f, nil
}

// WriteFrame encodes f as one self-contained length-prefixed frame (a
// fresh gob stream): the form of the one-shot handshake frames.
func WriteFrame(w io.Writer, f *Frame) error { return NewCodec().WriteFrame(w, f) }

// ReadFrame decodes one self-contained frame written by WriteFrame. This
// is the function FuzzFrameDecode hammers; FuzzCodecStream covers the
// persistent form.
func ReadFrame(r io.Reader) (*Frame, error) { return NewCodec().ReadFrame(r) }
