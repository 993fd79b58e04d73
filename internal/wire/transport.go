package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"gis/internal/faults"
	"gis/internal/obs"
)

// Message types. Requests and responses share one tag space.
const (
	// Requests.
	msgTables byte = iota + 1
	msgTableInfo
	msgExecute
	msgBeginTx
	msgInsert
	msgUpdate
	msgDelete
	msgPrepare
	msgCommit
	msgAbort
	msgStats
	// Responses.
	msgOK   // payload depends on the request
	msgErr  // payload: error string
	msgRows // payload: row batch (streamed after msgExecute's msgOK)
	// msgEnd ends a row stream. Its payload is the sub-query's footer: the
	// component system's finished span subtree when the request carried a
	// trace, empty otherwise (see subquery.go).
	msgEnd
	// msgHello is the per-connection handshake, the first frame on
	// every connection: the client announces its protocol version,
	// tenant and frame-size bound; the server answers msgOK with its own
	// bound, the source's capability vector and, when the hello asks,
	// its tables' descriptions (see hello.go).
	msgHello
)

// rowBatchSize is how many rows travel per msgRows frame.
const rowBatchSize = 256

// socketBuffer is the kernel buffer on each end of a result stream's
// path: the write buffer of every accepted connection and the read
// buffer of every dialed one. After msgOK a stream flows server → client
// only, and TCP's own backpressure is its flow control: a consumer that
// stops reading stalls the server's next write once these two buffers
// are full, so what it leaves in flight is bounded in bytes.
const socketBuffer = 32 << 10

// classOfTag maps request tags to fault-injection op classes, which
// mirror retry semantics: reads are idempotent, writes and 2PC messages
// are not. Response tags (and anything unknown) classify as reads.
func classOfTag(tag byte) faults.OpClass {
	switch tag {
	case msgInsert, msgUpdate, msgDelete, msgBeginTx:
		return faults.OpWrite
	case msgPrepare:
		return faults.OpPrepare
	case msgCommit:
		return faults.OpCommit
	case msgAbort:
		return faults.OpAbort
	default:
		return faults.OpRead
	}
}

// SimLink models one direction of a simulated wide-area link. The zero
// value is a perfect link (no delay, infinite bandwidth).
type SimLink struct {
	// Latency is added once per frame.
	Latency time.Duration
	// BytesPerSec throttles frame payloads; 0 means unlimited.
	BytesPerSec int64
}

// delay sleeps for the simulated transfer time of n bytes. The sleep is
// context-aware: a cancelled query stops paying simulated RTT
// immediately instead of serving out the remaining link time.
func (l SimLink) delay(ctx context.Context, n int) error {
	if l.Latency == 0 && l.BytesPerSec == 0 {
		return nil
	}
	d := l.Latency
	if l.BytesPerSec > 0 {
		d += time.Duration(float64(n) / float64(l.BytesPerSec) * float64(time.Second))
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// linkMetrics holds one named link's wire counters (frames and bytes in
// each direction, plus a round-trip latency histogram). Client links
// register under wire.client.<name>.*, server links under
// wire.server.<name>.*. A nil *linkMetrics disables recording.
type linkMetrics struct {
	framesOut, framesIn *obs.Counter
	bytesOut, bytesIn   *obs.Counter
	rtt                 *obs.Histogram
}

func newLinkMetrics(scope, name string) *linkMetrics {
	p := "wire." + scope + "." + name + "."
	r := obs.Default()
	return &linkMetrics{
		framesOut: r.Counter(p + "frames_out"),
		framesIn:  r.Counter(p + "frames_in"),
		bytesOut:  r.Counter(p + "bytes_out"),
		bytesIn:   r.Counter(p + "bytes_in"),
		rtt:       r.Histogram(p+"rtt_seconds", obs.LatencyBuckets),
	}
}

// ErrFrameTooLarge marks a frame that exceeds the connection's size
// bound. It is detected from the length header alone, before any
// allocation, so a corrupt or malicious peer cannot provoke an
// unbounded allocation; callers treat it as a fatal protocol error for
// the connection.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// frameConn reads and writes tagged frames over a connection:
// [4-byte big-endian length][1-byte tag][payload]. Every read and write
// is bounded by the deadline of the context it is given (see arm).
type frameConn struct {
	rw net.Conn
	// armed is the deadline currently set on rw (zero: none).
	armed time.Time
	// send/recv simulate the uplink and downlink.
	send, recv SimLink
	// metrics, when set, counts frames/bytes per direction.
	metrics *linkMetrics
	// inj, when set, injects faults per operation (see injure).
	inj *faults.Injector
	// limit bounds inbound frames (readFrame rejects larger ones
	// before allocating); wlimit bounds outbound frames and is lowered
	// to the peer's advertised limit by the hello handshake.
	limit, wlimit int
	// rttEWMA, when set, receives an exponentially-weighted moving
	// average of observed round-trip nanoseconds (the client uses it to
	// decrement propagated deadlines by WAN latency).
	rttEWMA *atomic.Int64
	hdr     [5]byte
	// rbuf backs msgRows payloads across readFrame calls. Row frames
	// dominate traffic and their payloads are fully decoded (every
	// string/bytes payload copied into the frame's string block) before
	// the next read on this conn, so reuse is safe there; every other
	// tag gets a fresh buffer because its payload can outlive the next
	// read (e.g. a response decoded after the connection went back to
	// the pool).
	rbuf []byte
	// strs is where the rows bodies read on this conn gather their
	// strings (Decoder.rowBatch), reused like rbuf.
	strs stringScratch
}

// decoder wraps a payload read on f, to be decoded with f's scratch.
func (f *frameConn) decoder(payload []byte) *Decoder {
	return &Decoder{buf: payload, strs: &f.strs}
}

func newFrameConn(rw net.Conn, send, recv SimLink) *frameConn {
	return &frameConn{rw: rw, send: send, recv: recv, limit: maxFrame, wlimit: maxFrame}
}

// arm makes the socket observe ctx's deadline, so a read or write that
// blocks — a peer parked on a lock, a consumer that stopped reading —
// returns when the deadline passes; a context without one clears
// whatever an earlier borrower of the connection left set. Only the
// deadline is armed: a bare cancel is seen between frames, not inside a
// blocked one (arming Done() by context.AfterFunc costs three
// allocations a round trip; Deadline → SetDeadline costs none).
func (f *frameConn) arm(ctx context.Context) {
	dl, _ := ctx.Deadline()
	if !dl.Equal(f.armed) {
		f.armed = dl
		_ = f.rw.SetDeadline(dl) // fails only on a closed conn, which the I/O that follows reports
	}
}

// ioErr names a timeout by its cause. A socket times out because the
// deadline arm took from ctx has passed (a connect may also run into the
// dialer's own bound, which is the source's fault and stays as it is),
// so the caller sees the context's error, whichever of the two timers
// fired first. The frame may be half-moved; callers discard the
// connection as after any transport error.
func ioErr(ctx context.Context, err error) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	if dl, ok := ctx.Deadline(); !ok || time.Now().Before(dl) {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return context.DeadlineExceeded
}

// injure consults the fault injector for one operation of the given
// class. Injected drops and partitions kill the underlying connection —
// the peer sees a mid-stream close, exactly like a crashed process —
// while transient errors leave it usable.
func (f *frameConn) injure(ctx context.Context, class faults.OpClass) error {
	err := f.inj.Inject(ctx, class)
	if err == nil {
		return nil
	}
	if errors.Is(err, faults.ErrDropped) || errors.Is(err, faults.ErrPartitioned) {
		_ = f.rw.Close() // the injected drop is the error that matters
	}
	return err
}

// writeFrame sends one frame, applying uplink simulation.
func (f *frameConn) writeFrame(ctx context.Context, tag byte, payload []byte) error {
	if len(payload) > f.wlimit {
		return fmt.Errorf("wire: outbound frame of %d bytes over %d-byte bound: %w", len(payload), f.wlimit, ErrFrameTooLarge)
	}
	if m := f.metrics; m != nil {
		m.framesOut.Inc()
		m.bytesOut.Add(int64(len(payload) + 5))
	}
	if err := f.send.delay(ctx, len(payload)+5); err != nil {
		return err
	}
	f.arm(ctx)
	binary.BigEndian.PutUint32(f.hdr[:4], uint32(len(payload)))
	f.hdr[4] = tag
	if _, err := f.rw.Write(f.hdr[:]); err != nil {
		return ioErr(ctx, err)
	}
	if len(payload) > 0 {
		if _, err := f.rw.Write(payload); err != nil {
			return ioErr(ctx, err)
		}
	}
	return nil
}

// readFrame receives one frame, applying downlink simulation.
func (f *frameConn) readFrame(ctx context.Context) (byte, []byte, error) {
	f.arm(ctx)
	var hdr [5]byte
	if _, err := io.ReadFull(f.rw, hdr[:]); err != nil {
		return 0, nil, ioErr(ctx, err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if uint64(n) > uint64(f.limit) {
		return 0, nil, fmt.Errorf("wire: inbound frame of %d bytes over %d-byte bound: %w", n, f.limit, ErrFrameTooLarge)
	}
	var payload []byte
	if hdr[4] == msgRows {
		if cap(f.rbuf) < int(n) {
			f.rbuf = make([]byte, n)
		}
		payload = f.rbuf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(f.rw, payload); err != nil {
		return 0, nil, ioErr(ctx, err)
	}
	if m := f.metrics; m != nil {
		m.framesIn.Inc()
		m.bytesIn.Add(int64(n) + 5)
	}
	if err := f.recv.delay(ctx, int(n)+5); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// call performs one request/response round trip, consulting the fault
// injector with the request's op class first.
func (f *frameConn) call(ctx context.Context, tag byte, payload []byte) (byte, []byte, error) {
	if err := f.injure(ctx, classOfTag(tag)); err != nil {
		return 0, nil, err
	}
	return f.exchange(ctx, tag, payload)
}

// exchange sends one request and reads its answer, folding the round
// trip's time into the link's histogram and RTT estimate.
func (f *frameConn) exchange(ctx context.Context, tag byte, payload []byte) (byte, []byte, error) {
	start := time.Now()
	if err := f.writeFrame(ctx, tag, payload); err != nil {
		return 0, nil, err
	}
	tag, resp, err := f.readFrame(ctx)
	if err == nil {
		if f.metrics != nil {
			f.metrics.rtt.ObserveSince(start)
		}
		f.observeRTT(time.Since(start))
	}
	return tag, resp, err
}

// observeRTT folds one round-trip observation into the shared EWMA
// (new = 3/4·old + 1/4·sample). Writers race benignly: the value is a
// smoothing estimate, not an account.
func (f *frameConn) observeRTT(d time.Duration) {
	if f.rttEWMA == nil {
		return
	}
	old := f.rttEWMA.Load()
	if old == 0 {
		f.rttEWMA.Store(int64(d))
		return
	}
	f.rttEWMA.Store(old - old/4 + int64(d)/4)
}
