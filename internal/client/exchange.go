package client

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// stream is the exchange core Client and Session share: one logical
// transcoding session's negotiated parameters, batch-id and trace-id
// state, epoch and retry accounting, and the request framing, reply
// classification and retry policy that act on them. It reaches the wire
// only through a transport, so it never knows whether it runs over a
// dedicated connection or a multiplexed one.
type stream struct {
	cfg *Config
	// sid is the v4 stream id every frame leads with: 0 for a Client (the
	// stream the Hello opens), the Mux-assigned id for a Session.
	sid uint32

	scheme     string
	txnSize    int
	metaBits   int
	metaBytes  int
	batchLimit int
	// version is the negotiated protocol revision: the configured cap, or
	// lower if the server negotiated down in HelloOK.
	version uint8

	// id numbers outgoing batches; replies are matched against it so a
	// retry can never be double-applied.
	id uint64
	// traceID is the current batch's end-to-end trace id: drawn fresh
	// (and nonzero) per Transcode call, stable across that call's
	// retries so every attempt of one logical batch shares one trace.
	// Carried on the wire only by protocol v3+ sessions.
	traceID uint64
	// epoch advances whenever the server-side codec restarted: on every
	// reconnect (a new session starts a fresh codec), on a mux stream kill
	// and re-open, and on a BatchError carrying the reset flag. Atomic
	// because a mux reconnect, driven by a sibling session's goroutine,
	// bumps it from outside.
	epoch atomic.Uint64
	stats RetryStats

	// bbuf and recs are reused across Transcode calls so a steady-state
	// streaming client allocates nothing per batch.
	bbuf []byte
	recs []trace.EncodedRecord
}

// transport is the connection a stream exchanges its frames over: a
// Client's own connection, or a Session's share of its Mux's.
type transport interface {
	// ready makes the transport usable for the next attempt, redialing
	// (and for a mux stream re-opening the stream) as needed.
	ready() error
	// send writes one Batch frame; recv reads the stream's next reply.
	send(body []byte) error
	recv() (trace.FrameType, []byte, error)
	// drop discards a connection an exchange found broken.
	drop(err error)
	// streamClosed classifies a StreamClosed the server sent for this
	// stream in place of a reply.
	streamClosed(msg string) (exchangeKind, error)
}

// exchangeKind classifies one batch exchange's outcome.
type exchangeKind int

const (
	exchangeOK     exchangeKind = iota
	exchangeBusy                // retryable on the same connection, after the hint
	exchangeFault               // BatchError: retryable on the same connection
	exchangeBroken              // the session is unusable; drop it before retrying
	exchangeCaller              // caller error (bad batch); never retried
)

// setParams records the parameters the server negotiated for the stream.
func (st *stream) setParams(metaBits, batchLimit int) {
	st.metaBits, st.metaBytes = metaBits, (metaBits+7)/8
	st.batchLimit = batchLimit
}

// Scheme returns the session's scheme name.
func (st *stream) Scheme() string { return st.scheme }

// TxnSize returns the session's transaction size in bytes.
func (st *stream) TxnSize() int { return st.txnSize }

// MetaBits returns the scheme's side-band width per transaction as
// negotiated in the handshake or stream open.
func (st *stream) MetaBits() int { return st.metaBits }

// BatchLimit returns the server's maximum batch size.
func (st *stream) BatchLimit() int { return st.batchLimit }

// Epoch returns the codec epoch: it advances every time the server-side
// codec restarted (reconnect, mux stream kill, or a BatchError with the
// reset flag). Callers decoding a stateful scheme must reset their
// decoder whenever Epoch differs from the value they last observed. Mux
// stream epochs are independent: a sibling stream's kill or codec reset
// never moves this one, only a loss of the shared connection does.
func (st *stream) Epoch() uint64 { return st.epoch.Load() }

// RetryStats returns the fault-recovery counters accumulated so far.
func (st *stream) RetryStats() RetryStats { return st.stats }

// LastTraceID returns the trace id of the most recent Transcode call
// (zero before the first call). On protocol v3+ sessions the same id
// labels the gateway's and any proxy's spans for that batch, so it is
// the key to query their /debug/trace surfaces with.
func (st *stream) LastTraceID() uint64 { return st.traceID }

// newTraceID draws a nonzero trace id; zero is reserved to mean
// "untraced" throughout the stack.
func newTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// transcode sends one batch over tr and waits for its reply, retrying
// recoverable failures up to Config.MaxRetries times.
func (st *stream) transcode(tr transport, txns []trace.Transaction) (trace.BatchReply, error) {
	if len(txns) == 0 {
		return trace.BatchReply{}, fmt.Errorf("%w: empty batch", trace.ErrBadFrame)
	}
	if st.batchLimit > 0 && len(txns) > st.batchLimit {
		return trace.BatchReply{}, fmt.Errorf("%w: batch of %d exceeds server limit %d", trace.ErrBadFrame, len(txns), st.batchLimit)
	}
	st.id++
	id := st.id
	st.traceID = newTraceID()
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt <= st.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			st.stats.Retries++
			st.backoff(attempt, hint)
			hint = 0
		}
		if err := tr.ready(); err != nil {
			lastErr = err
			continue
		}
		reply, h, kind, err := st.exchange(tr, id, txns)
		switch kind {
		case exchangeOK:
			return reply, nil
		case exchangeCaller:
			return trace.BatchReply{}, err
		case exchangeBusy:
			st.stats.Busy++
			hint = h
		case exchangeFault:
			st.stats.BatchErrors++
		case exchangeBroken:
			tr.drop(err)
		}
		lastErr = err
	}
	return trace.BatchReply{}, lastErr
}

// backoff sleeps the retry backoff: exponential with jitter, floored by
// the server's Busy hint when one was given.
func (st *stream) backoff(attempt int, hint time.Duration) {
	d := st.cfg.RetryBackoff << (attempt - 1)
	if d <= 0 || d > st.cfg.RetryBackoffMax {
		d = st.cfg.RetryBackoffMax
	}
	// Jitter into [d/2, d] so synchronized clients don't retry in phase.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	start := time.Now()
	time.Sleep(d)
	st.cfg.Tracer.ObserveStage(st.scheme, obs.StageRetryBackoff, time.Since(start))
}

// frame marshals batch id into the stream's reused buffer in the
// negotiated revision's framing: a v4 stream-id prefix outside the
// envelope, then the v3 trace envelope, the v2 batch envelope, or (v1)
// none, then the transactions. The envelope's CRC covers only what
// follows the prefix.
func (st *stream) frame(id uint64, txns []trace.Transaction) ([]byte, error) {
	buf := st.bbuf[:0]
	envAt := 0
	if st.version >= 4 {
		buf = trace.AppendStreamID(buf, st.sid)
		envAt = len(buf)
	}
	switch {
	case st.version >= 3:
		buf = trace.AppendTraceEnvelope(buf, id, st.traceID)
	case st.version >= 2:
		buf = trace.AppendBatchEnvelope(buf, id)
	}
	body, err := trace.AppendBatch(buf, txns, st.txnSize)
	if err != nil {
		return nil, err
	}
	st.bbuf = body[:0]
	if st.version >= 2 {
		if err := trace.SealBatchEnvelope(body[envAt:]); err != nil {
			return nil, err // unreachable: envelope present
		}
	}
	return body, nil
}

// exchange performs one send/receive of batch id over tr. It returns the
// reply, the server's retry-after hint (Busy only), the outcome class, and
// the error for every class but exchangeOK.
func (st *stream) exchange(tr transport, id uint64, txns []trace.Transaction) (trace.BatchReply, time.Duration, exchangeKind, error) {
	writeStart := time.Now()
	body, err := st.frame(id, txns)
	if err != nil {
		return trace.BatchReply{}, 0, exchangeCaller, err
	}
	if err := tr.send(body); err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: sending batch: %w", err)
	}
	readStart := time.Now()
	writeDur := readStart.Sub(writeStart)
	st.cfg.Tracer.ObserveStage(st.scheme, obs.StageFrameWrite, writeDur)
	ft, rbody, err := tr.recv()
	if err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reading reply: %w", err)
	}
	// An Error frame's body is plain text on every revision: the v4
	// stream-id prefix is stripped from everything else.
	if st.version >= 4 && ft != trace.FrameError {
		if ft == trace.FrameStreamClosed {
			_, msg, err := trace.ParseStreamClosed(rbody)
			if err != nil {
				return trace.BatchReply{}, 0, exchangeBroken, err
			}
			kind, err := tr.streamClosed(msg)
			return trace.BatchReply{}, 0, kind, err
		}
		var sid uint32
		sid, rbody, err = trace.SplitStreamID(rbody)
		if err != nil {
			return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reading reply: %w", err)
		}
		if sid != st.sid {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: reply carries stream %d, expected %d (stream desynchronized)", sid, st.sid)
		}
	}
	readDur := time.Since(readStart)
	st.cfg.Tracer.ObserveStage(st.scheme, obs.StageFrameRead, readDur)
	switch ft {
	case trace.FrameBatchReply:
		payload := rbody
		if st.version >= 2 {
			var rid, rtrace uint64
			if st.version >= 3 {
				rid, rtrace, payload, err = trace.OpenTraceEnvelope(rbody)
				if err == nil && rtrace != st.traceID {
					return trace.BatchReply{}, 0, exchangeBroken,
						fmt.Errorf("client: reply carries trace %#x, expected %#x (stream desynchronized)", rtrace, st.traceID)
				}
			} else {
				rid, payload, err = trace.OpenBatchEnvelope(rbody)
			}
			if err != nil {
				// A CRC failure here is wire damage on the reply path; the
				// server already applied the batch, so the session's codec
				// stream is unusable — reconnect for a clean epoch.
				return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reply for batch %d: %w", id, err)
			}
			if rid != id {
				return trace.BatchReply{}, 0, exchangeBroken,
					fmt.Errorf("client: reply names batch %d, expected %d (stream desynchronized)", rid, id)
			}
		}
		reply, err := trace.ParseBatchReplyInto(payload, st.txnSize, st.metaBytes, st.recs)
		if err != nil {
			return trace.BatchReply{}, 0, exchangeBroken, err
		}
		st.recs = reply.Records
		if st.cfg.Trace != nil {
			var sp obs.Span
			sp.Reset(st.traceID, id, uint64(st.sid), st.scheme)
			sp.Observe(obs.StageFrameWrite, writeDur)
			sp.Observe(obs.StageFrameRead, readDur)
			sp.Txns = int(reply.Stats.Transactions)
			sp.DataBits = reply.Stats.DataBits
			sp.BaseOnes, sp.EncOnes = reply.Stats.OnesBefore, reply.Stats.OnesAfter
			sp.BaseToggles, sp.EncToggles = reply.Stats.TogglesBefore, reply.Stats.TogglesAfter
			st.cfg.Trace.Add(&sp)
		}
		return reply, 0, exchangeOK, nil
	case trace.FrameBusy:
		if st.version < 2 {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("%w: busy frame on a v1 session", trace.ErrBadFrame)
		}
		rid, after, err := trace.ParseBusy(rbody)
		if err != nil || rid != id {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: malformed busy reply for batch %d (id %d, err %v)", id, rid, err)
		}
		return trace.BatchReply{}, after, exchangeBusy,
			fmt.Errorf("%w: batch %d shed, retry after %v", ErrBusy, id, after)
	case trace.FrameBatchError:
		if st.version < 2 {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("%w: batch-error frame on a v1 session", trace.ErrBadFrame)
		}
		rid, reset, msg, err := trace.ParseBatchError(rbody)
		if err != nil || rid != id {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: malformed batch-error reply for batch %d (id %d, err %v)", id, rid, err)
		}
		if reset {
			// The server restarted its codec; any decoder tracking this
			// session's stream must restart with it.
			st.epoch.Add(1)
		}
		return trace.BatchReply{}, 0, exchangeFault, fmt.Errorf("%w: %s", ErrBatchFault, msg)
	case trace.FrameError:
		// A session-fatal server error: the server is closing the
		// connection behind this frame.
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("%w: %s", ErrServer, rbody)
	default:
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("%w: unexpected frame type %#x", trace.ErrBadFrame, ft)
	}
}

// wire is one dialed connection with its buffered reader and writer.
type wire struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// hello dials addr and runs the Hello exchange on the new connection,
// accepting any revision from MinProtocolVersion up to cfg.Protocol. ctx
// bounds both the dial and the handshake (the earlier of its deadline and
// IOTimeout applies to the handshake I/O); on any failure, including ctx
// ending mid-handshake, the socket is closed before hello returns, never
// leaked.
func hello(ctx context.Context, cfg *Config, addr string, h trace.Hello) (wire, trace.HelloOK, error) {
	var conn net.Conn
	var err error
	if cfg.Dialer != nil {
		conn, err = cfg.Dialer(ctx, addr)
	} else {
		conn, err = (&net.Dialer{Timeout: cfg.DialTimeout}).DialContext(ctx, "tcp", addr)
	}
	if err != nil {
		return wire{}, trace.HelloOK{}, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	// The dialer honors ctx, but the handshake I/O below does not by
	// itself: closing the socket on cancellation fails that I/O promptly
	// and guarantees no leaked connection either way.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	w := wire{conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)}
	ok, err := w.handshake(ctx, cfg, h)
	if !stop() || (err != nil && ctx.Err() != nil) {
		// ctx ended during the handshake (and may have closed the socket).
		err = fmt.Errorf("client: handshake: %w", ctx.Err())
	}
	if err != nil {
		conn.Close()
		return wire{}, trace.HelloOK{}, err
	}
	return w, ok, nil
}

// handshake sends h at cfg.Protocol on w and reads the HelloOK, both
// under one deadline.
func (w wire) handshake(ctx context.Context, cfg *Config, h trace.Hello) (trace.HelloOK, error) {
	h.Version = cfg.Protocol
	body, err := trace.MarshalHello(h)
	if err != nil {
		return trace.HelloOK{}, err
	}
	dl := time.Now().Add(cfg.IOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	w.conn.SetDeadline(dl)
	if err := trace.WriteFrame(w.bw, trace.FrameHello, body); err != nil {
		return trace.HelloOK{}, fmt.Errorf("client: sending hello: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return trace.HelloOK{}, fmt.Errorf("client: sending hello: %w", err)
	}
	ft, rbody, err := trace.ReadFrame(w.br, nil)
	if err != nil {
		return trace.HelloOK{}, fmt.Errorf("client: reading hello-ok: %w", err)
	}
	switch ft {
	case trace.FrameHelloOK:
		ok, err := trace.ParseHelloOK(rbody)
		if err != nil {
			return trace.HelloOK{}, err
		}
		if ok.Version < trace.MinProtocolVersion || ok.Version > cfg.Protocol {
			return trace.HelloOK{}, fmt.Errorf("%w: server negotiated protocol version %d, requested <= %d",
				ErrServer, ok.Version, cfg.Protocol)
		}
		return ok, nil
	case trace.FrameError:
		return trace.HelloOK{}, fmt.Errorf("%w: %s", ErrServer, rbody)
	default:
		return trace.HelloOK{}, fmt.Errorf("%w: unexpected frame type %#x in handshake", trace.ErrBadFrame, ft)
	}
}
