package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// ErrMuxClosed is returned by operations on a closed Mux or Session.
var ErrMuxClosed = errors.New("client: mux closed")

// ErrStreamKilled wraps a StreamClosed the server sent unprompted: the
// gateway killed this one stream (fault budget exhausted) while the
// connection and its sibling streams kept serving. With retries enabled
// the session transparently re-opens its stream — on a fresh server-side
// codec, so Epoch advances — and re-drives the batch.
var ErrStreamKilled = errors.New("client: stream killed by server")

// Mux multiplexes many logical sessions onto one TCP connection using
// BXTP protocol v4 stream framing. Open vends one Session per logical
// stream; each has its own scheme, transaction size, batch-id space,
// epoch, and retry accounting, and each must be used from a single
// goroutine — but different Sessions of one Mux are safe to drive
// concurrently, their frames interleaving on the shared connection.
//
// The connection is dialed lazily on the first Open (whose scheme and
// transaction size become the Hello parameters, implicitly opening stream
// 0) and re-dialed transparently when it breaks: every Session's epoch
// advances (the server-side codecs are gone) and each stream re-opens on
// the replacement connection on its next use.
//
// The server must negotiate protocol v4; a peer that negotiates down
// cannot demultiplex, so Open fails rather than degrade.
type Mux struct {
	addr string
	cfg  Config

	mu       sync.Mutex
	conn     *muxConn
	sessions map[uint32]*Session
	nextSID  uint32
	closed   bool
	// helloScheme/helloTxn are the first Open's parameters, replayed as
	// the Hello of every redial (the Hello implicitly opens stream 0).
	helloScheme string
	helloTxn    int
	version     uint8

	reconnects atomic.Uint64
}

// muxConn is one generation of the shared connection. Writes from any
// session serialize on wmu; a single reader goroutine owns br and routes
// reply frames to sessions by stream id. dead is closed (once) when the
// connection fails, waking every waiting session.
type muxConn struct {
	wire
	// ok is the generation's HelloOK: the parameters its Hello negotiated
	// for stream 0.
	ok trace.HelloOK

	wmu sync.Mutex

	dead     chan struct{}
	deadErr  error
	deadOnce sync.Once
}

// fail marks the connection dead with err and closes the socket, waking
// the reader and every session blocked on a reply.
func (mc *muxConn) fail(err error) {
	mc.deadOnce.Do(func() {
		mc.deadErr = err
		close(mc.dead)
		mc.conn.Close()
	})
}

func (mc *muxConn) isDead() bool {
	select {
	case <-mc.dead:
		return true
	default:
		return false
	}
}

// muxFrame is one reply frame routed to a session: the type and the full
// v4 body (stream-id prefix included), copied out of the reader's buffer.
type muxFrame struct {
	ft   trace.FrameType
	body []byte
}

// Session is one logical stream on a Mux: an independent transcoding
// session with its own codec state on the server, batch-id space, epoch,
// and retry accounting. It runs the same exchange core as Client. Like
// Client, a Session is not safe for concurrent use — drive each from one
// goroutine.
type Session struct {
	stream
	m *Mux
	// mc is the connection generation this stream last opened on, which
	// its exchanges use; needsReopen is set when the stream must
	// StreamOpen before its next batch (new generation, or the server
	// killed the stream).
	mc          *muxConn
	needsReopen bool
	// closed is set by Session.Close, or by Mux.Close from any goroutine.
	closed atomic.Bool

	// replyCh receives this stream's frames from the mux reader. Capacity
	// one: the per-stream discipline is one frame in flight, and the
	// reader drops (never blocks on) anything beyond that.
	replyCh chan muxFrame
}

// NewMux prepares a multiplexed client for addr. No connection is opened
// until the first Open. cfg.Protocol, if set, must be at least 4 —
// multiplexing is a v4 capability.
func NewMux(addr string, cfg Config) (*Mux, error) {
	if cfg.Protocol != 0 && cfg.Protocol < 4 {
		return nil, fmt.Errorf("client: mux requires protocol >= 4, got %d", cfg.Protocol)
	}
	return &Mux{
		addr:     addr,
		cfg:      cfg.withDefaults(),
		sessions: make(map[uint32]*Session),
	}, nil
}

// Version returns the negotiated BXTP revision (0 before the first Open).
func (m *Mux) Version() uint8 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Reconnects returns how many times the shared connection was re-dialed
// after breaking. Zero means no session ever observed a disconnect.
func (m *Mux) Reconnects() uint64 { return m.reconnects.Load() }

// Sessions returns the number of streams currently open.
func (m *Mux) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Open vends a new logical session running the named scheme over
// txnSize-byte transactions. The first Open dials the shared connection
// (its parameters become the Hello, which implicitly opens stream 0);
// later Opens add a stream with a StreamOpen exchange.
func (m *Mux) Open(scheme string, txnSize int) (*Session, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrMuxClosed
	}
	first := m.helloScheme == ""
	if first {
		m.helloScheme, m.helloTxn = scheme, txnSize
	}
	if m.conn == nil || m.conn.isDead() {
		if err := m.redialLocked(); err != nil {
			if first {
				// Let the next Open retry with its own hello parameters.
				m.helloScheme, m.helloTxn = "", 0
			}
			m.mu.Unlock()
			return nil, err
		}
	}
	mc := m.conn
	s := &Session{
		stream:  stream{cfg: &m.cfg, sid: m.nextSID, scheme: scheme, txnSize: txnSize, version: m.version},
		m:       m,
		mc:      mc,
		replyCh: make(chan muxFrame, 1),
	}
	m.nextSID++
	m.sessions[s.sid] = s
	m.mu.Unlock()

	if s.sid == 0 {
		// Stream 0 was opened by the Hello itself; its negotiated
		// parameters are the handshake's.
		s.setParams(mc.ok.MetaBits, mc.ok.BatchLimit)
		return s, nil
	}
	if err := s.openOnConn(mc); err != nil {
		m.mu.Lock()
		delete(m.sessions, s.sid)
		m.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// redialLocked dials and handshakes a fresh connection generation. Called
// with m.mu held. On anything but the first dial, every live session's
// epoch advances — the server-side codecs died with the old connection —
// and each stream lazily re-opens on next use.
func (m *Mux) redialLocked() error {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.DialTimeout)
	defer cancel()
	w, ok, err := hello(ctx, &m.cfg, m.addr, trace.Hello{TxnSize: m.helloTxn, Scheme: m.helloScheme})
	if err != nil {
		return err
	}
	if ok.Version < 4 {
		w.conn.Close()
		return fmt.Errorf("%w: server negotiated protocol %d; multiplexing requires 4", ErrServer, ok.Version)
	}
	if m.conn != nil {
		m.reconnects.Add(1)
		for _, s := range m.sessions {
			s.epoch.Add(1)
		}
	}
	m.version = ok.Version
	m.conn = &muxConn{wire: w, ok: ok, dead: make(chan struct{})}
	w.conn.SetReadDeadline(time.Time{})
	go m.readLoop(m.conn)
	return nil
}

// readLoop is the demultiplexer: it owns the connection's read side,
// routing every frame to the session its stream-id prefix names. A frame
// for an unknown stream is dropped (the stream closed concurrently); a
// read or framing error kills the connection generation, waking every
// waiting session.
func (m *Mux) readLoop(mc *muxConn) {
	var fbuf []byte
	for {
		ft, body, err := trace.ReadFrame(mc.br, fbuf)
		if err != nil {
			mc.fail(fmt.Errorf("client: mux read: %w", err))
			return
		}
		if cap(body)+1 > cap(fbuf) {
			fbuf = make([]byte, cap(body)+1)
		}
		sid, _, err := trace.SplitStreamID(body)
		if err != nil {
			mc.fail(fmt.Errorf("client: mux read: %w", err))
			return
		}
		m.mu.Lock()
		s := m.sessions[sid]
		m.mu.Unlock()
		if s == nil {
			continue
		}
		cp := make([]byte, len(body))
		copy(cp, body)
		select {
		case s.replyCh <- muxFrame{ft: ft, body: cp}:
		default:
			// More than one frame outstanding for the stream can only be
			// an unsolicited duplicate; the stream learns its fate from
			// the frame already queued (or from its next exchange).
		}
	}
}

// ready makes a live connection generation s.mc for the next attempt,
// redialing the shared connection and re-opening this stream as needed.
func (s *Session) ready() error {
	// Drop any stale frame left over from a timed-out attempt, a previous
	// generation or a killed stream.
	select {
	case <-s.replyCh:
	default:
	}
	m := s.m
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrMuxClosed
	}
	var redial time.Duration
	if m.conn == nil || m.conn.isDead() {
		start := time.Now()
		if err := m.redialLocked(); err != nil {
			m.mu.Unlock()
			return err
		}
		redial = time.Since(start)
	}
	mc := m.conn
	m.mu.Unlock()
	if redial > 0 {
		s.cfg.Tracer.ObserveStage(s.scheme, obs.StageReconnect, redial)
	}
	if s.mc != mc {
		s.mc = mc
		// The redial Hello re-opened stream 0 with its original
		// parameters; every other stream must re-open explicitly.
		if s.sid == 0 {
			s.setParams(mc.ok.MetaBits, mc.ok.BatchLimit)
		}
		s.needsReopen = s.sid != 0
	}
	if s.needsReopen {
		return s.openOnConn(mc)
	}
	return nil
}

// writeFrame sends one frame on the shared connection, serializing with
// every other session's writes.
func (mc *muxConn) writeFrame(ft trace.FrameType, body []byte, timeout time.Duration) error {
	mc.wmu.Lock()
	defer mc.wmu.Unlock()
	mc.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := trace.WriteFrame(mc.bw, ft, body); err != nil {
		return err
	}
	return mc.bw.Flush()
}

// await blocks until the reader routes a frame to s, the connection
// generation dies, or timeout passes (which kills the generation: the
// server answers in order, so a missing reply means the connection is
// gone or desynchronized).
func (s *Session) await(mc *muxConn, timeout time.Duration) (muxFrame, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case f := <-s.replyCh:
		return f, nil
	case <-mc.dead:
		return muxFrame{}, mc.deadErr
	case <-t.C:
		err := fmt.Errorf("client: stream %d reply timed out after %v", s.sid, timeout)
		mc.fail(err)
		return muxFrame{}, err
	}
}

// openOnConn runs one StreamOpen exchange for s on mc, refreshing the
// stream's negotiated parameters on success.
func (s *Session) openOnConn(mc *muxConn) error {
	body, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: s.sid, TxnSize: s.txnSize, Scheme: s.scheme})
	if err != nil {
		return err
	}
	if err := mc.writeFrame(trace.FrameStreamOpen, body, s.cfg.IOTimeout); err != nil {
		return fmt.Errorf("client: opening stream %d: %w", s.sid, err)
	}
	f, err := s.await(mc, s.cfg.IOTimeout)
	if err != nil {
		return fmt.Errorf("client: opening stream %d: %w", s.sid, err)
	}
	if f.ft != trace.FrameStreamOpenOK {
		err := fmt.Errorf("%w: unexpected frame type %#x answering stream open", trace.ErrBadFrame, f.ft)
		mc.fail(err)
		return err
	}
	ok, err := trace.ParseStreamOpenOK(f.body)
	if err != nil || ok.ID != s.sid {
		err := fmt.Errorf("client: malformed stream-open-ok for stream %d (id %d, err %v)", s.sid, ok.ID, err)
		mc.fail(err)
		return err
	}
	if ok.Status != trace.StreamOK {
		return fmt.Errorf("%w: stream %d refused: %s", ErrServer, s.sid, ok.Msg)
	}
	s.setParams(ok.MetaBits, ok.BatchLimit)
	s.needsReopen = false
	return nil
}

// ID returns the stream id this session multiplexes on.
func (s *Session) ID() uint32 { return s.sid }

// Transcode sends one batch on this stream and waits for its reply,
// retrying recoverable failures (Busy sheds, BatchError replies, stream
// kills, broken connections) up to Config.MaxRetries times, exactly like
// Client.Transcode — but sibling streams keep exchanging batches on the
// shared connection the whole time.
func (s *Session) Transcode(txns []trace.Transaction) (trace.BatchReply, error) {
	if s.closed.Load() {
		return trace.BatchReply{}, ErrMuxClosed
	}
	return s.transcode(s, txns)
}

func (s *Session) send(body []byte) error {
	return s.mc.writeFrame(trace.FrameBatch, body, s.cfg.IOTimeout)
}

func (s *Session) recv() (trace.FrameType, []byte, error) {
	f, err := s.await(s.mc, s.cfg.IOTimeout)
	return f.ft, f.body, err
}

// drop kills the connection generation; every stream's epoch advances
// when the next attempt redials.
func (s *Session) drop(err error) { s.mc.fail(err) }

// streamClosed handles the server retiring this stream while the
// connection lives on: the server-side codec is gone, so the epoch moves
// and the next attempt re-opens the stream fresh.
func (s *Session) streamClosed(msg string) (exchangeKind, error) {
	s.epoch.Add(1)
	s.needsReopen = true
	return exchangeFault, fmt.Errorf("%w: stream %d: %s", ErrStreamKilled, s.sid, msg)
}

// Close retires the stream: a StreamClose exchange when the connection is
// live (so the server frees the codec), then local deregistration. The
// Mux and its other sessions are unaffected.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	m := s.m
	m.mu.Lock()
	mc := m.conn
	live := mc != nil && !mc.isDead() && !s.needsReopen && s.mc == mc
	delete(m.sessions, s.sid)
	m.mu.Unlock()
	if !live {
		return nil
	}
	// The session is already deregistered, so the reader drops the
	// StreamClosed ack; the exchange below only pushes the close out and
	// confirms the write path still works.
	if err := mc.writeFrame(trace.FrameStreamClose, trace.MarshalStreamClose(s.sid), m.cfg.IOTimeout); err != nil {
		return fmt.Errorf("client: closing stream %d: %w", s.sid, err)
	}
	return nil
}

// Close tears down the mux: the shared connection closes and every
// session's next operation fails with ErrMuxClosed.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	mc := m.conn
	m.conn = nil
	for sid, s := range m.sessions {
		s.closed.Store(true)
		delete(m.sessions, sid)
	}
	m.mu.Unlock()
	if mc != nil {
		mc.fail(ErrMuxClosed)
	}
	return nil
}
