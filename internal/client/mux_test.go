package client_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// muxTxns builds one batch of random same-size transactions.
func muxTxns(rng *rand.Rand, n, size int) []trace.Transaction {
	txns := make([]trace.Transaction, n)
	for i := range txns {
		data := make([]byte, size)
		rng.Read(data)
		txns[i] = trace.Transaction{Addr: uint64(i * size), Kind: trace.Read, Data: data}
	}
	return txns
}

// verifyStream drives batches batches through one mux session, decoding
// every record against its source transaction, and returns how many epoch
// bumps it observed (resetting dec on each).
func verifyStream(t *testing.T, s *client.Session, dec core.Codec, seed int64, batches, batchSize int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bumps := 0
	last := s.Epoch()
	decoded := make([]byte, s.TxnSize())
	for bi := 0; bi < batches; bi++ {
		txns := muxTxns(rng, batchSize, s.TxnSize())
		reply, err := s.Transcode(txns)
		if err != nil {
			t.Errorf("stream %d batch %d: Transcode: %v", s.ID(), bi, err)
			return bumps
		}
		if e := s.Epoch(); e != last {
			dec.Reset()
			last = e
			bumps++
		}
		if len(reply.Records) != len(txns) {
			t.Errorf("stream %d batch %d: %d records for %d transactions", s.ID(), bi, len(reply.Records), len(txns))
			return bumps
		}
		for j, rec := range reply.Records {
			e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: s.MetaBits()}
			if err := dec.Decode(decoded, &e); err != nil {
				t.Errorf("stream %d batch %d record %d: decode: %v", s.ID(), bi, j, err)
				return bumps
			}
			for k := range decoded {
				if decoded[k] != txns[j].Data[k] {
					t.Errorf("stream %d batch %d record %d: decode mismatch at byte %d", s.ID(), bi, j, k)
					return bumps
				}
			}
		}
	}
	return bumps
}

func muxDecoder(t *testing.T, name string) core.Codec {
	t.Helper()
	dec, err := scheme.Build(name, config.DefaultServer().SchemeOptions())
	if err != nil {
		t.Fatalf("scheme.Build(%s): %v", name, err)
	}
	return dec
}

// TestMuxSessionsIndependent is the core multiplexing contract: three
// logical sessions — different schemes, one of them decode-stateful —
// share one TCP connection, run concurrently, and every stream decodes
// byte-identically with zero epoch bumps and zero reconnects. Closing one
// stream leaves its siblings serving.
func TestMuxSessionsIndependent(t *testing.T) {
	srv := startGateway(t)
	m, err := client.NewMux(srv.Addr(), client.Config{})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()

	schemes := []string{"universal", "bdenc", "basexor"}
	sessions := make([]*client.Session, len(schemes))
	for i, name := range schemes {
		if sessions[i], err = m.Open(name, 32); err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
	}
	if got := m.Version(); got != 4 {
		t.Fatalf("negotiated version = %d, want 4", got)
	}
	if got := m.Sessions(); got != 3 {
		t.Fatalf("Sessions() = %d, want 3", got)
	}
	for i, s := range sessions {
		if s.ID() != uint32(i) {
			t.Fatalf("session %d got stream id %d", i, s.ID())
		}
	}

	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *client.Session) {
			defer wg.Done()
			if bumps := verifyStream(t, s, muxDecoder(t, schemes[i]), int64(100+i), 20, 8); bumps != 0 {
				t.Errorf("stream %d: %d epoch bumps, want 0", s.ID(), bumps)
			}
		}(i, s)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := m.Reconnects(); got != 0 {
		t.Fatalf("Reconnects() = %d, want 0", got)
	}

	// Retiring one stream must not disturb its siblings.
	if err := sessions[1].Close(); err != nil {
		t.Fatalf("Session.Close: %v", err)
	}
	if got := m.Sessions(); got != 2 {
		t.Fatalf("Sessions() after close = %d, want 2", got)
	}
	if _, err := sessions[1].Transcode(muxTxns(rand.New(rand.NewSource(1)), 4, 32)); !errors.Is(err, client.ErrMuxClosed) {
		t.Fatalf("Transcode on closed session = %v, want ErrMuxClosed", err)
	}
	if bumps := verifyStream(t, sessions[0], muxDecoder(t, "universal"), 7, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("sibling stream disturbed by close (%d bumps)", bumps)
	}

	// A fresh stream may reuse the freed capacity with a different shape.
	s4, err := m.Open("basexor", 64)
	if err != nil {
		t.Fatalf("Open after close: %v", err)
	}
	if bumps := verifyStream(t, s4, muxDecoder(t, "basexor"), 9, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("late-opened stream failed (%d bumps)", bumps)
	}
}

// TestMuxRequiresV4 pins the capability floor: a Mux refuses a config
// capped below protocol v4 outright, and refuses to run against a server
// that negotiates down to v3 — degrading silently would strip the stream
// framing the sessions depend on.
func TestMuxRequiresV4(t *testing.T) {
	if _, err := client.NewMux("127.0.0.1:1", client.Config{Protocol: 3}); err == nil {
		t.Fatal("NewMux(Protocol:3) succeeded, want error")
	}

	testutil.VerifyNoLeaks(t)
	cfg := config.DefaultServer()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.LogLevel = "error"
	cfg.MaxProtocol = 3
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	defer srv.Close()

	m, err := client.NewMux(srv.Addr(), client.Config{})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	if _, err := m.Open("universal", 32); err == nil || !strings.Contains(err.Error(), "requires 4") {
		t.Fatalf("Open against a v3 server = %v, want a multiplexing-requires-v4 refusal", err)
	}
}

// TestMuxStreamRefusedAtLimit verifies a server-side stream refusal
// surfaces as an Open error carrying the server's message while the
// already-open streams keep serving.
func TestMuxStreamRefusedAtLimit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := config.DefaultServer()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.LogLevel = "error"
	cfg.StreamLimit = 2
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	defer srv.Close()

	m, err := client.NewMux(srv.Addr(), client.Config{})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	s0, err := m.Open("universal", 32)
	if err != nil {
		t.Fatalf("Open 0: %v", err)
	}
	if _, err := m.Open("universal", 32); err != nil {
		t.Fatalf("Open 1: %v", err)
	}
	if _, err := m.Open("universal", 32); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("Open beyond StreamLimit = %v, want a refusal", err)
	}
	if got := m.Sessions(); got != 2 {
		t.Fatalf("Sessions() after refusal = %d, want 2", got)
	}
	if bumps := verifyStream(t, s0, muxDecoder(t, "universal"), 3, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("stream 0 disturbed by sibling refusal (%d bumps)", bumps)
	}
}

// TestMuxRedialReopensStreams breaks the shared connection under two live
// streams — one decode-stateful — and verifies the mux re-dials once,
// every stream re-opens transparently on the replacement connection, and
// every stream's epoch advances exactly once so stateful callers know to
// reset their decoders.
func TestMuxRedialReopensStreams(t *testing.T) {
	srv := startGateway(t)

	var mu sync.Mutex
	var last net.Conn
	var dials atomic.Int32
	mcfg := client.Config{
		MaxRetries: 10,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
			if err == nil {
				mu.Lock()
				last = conn
				mu.Unlock()
				dials.Add(1)
			}
			return conn, err
		},
	}
	m, err := client.NewMux(srv.Addr(), mcfg)
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	su, err := m.Open("universal", 32)
	if err != nil {
		t.Fatalf("Open universal: %v", err)
	}
	sb, err := m.Open("bdenc", 32)
	if err != nil {
		t.Fatalf("Open bdenc: %v", err)
	}
	du, db := muxDecoder(t, "universal"), muxDecoder(t, "bdenc")
	if bumps := verifyStream(t, su, du, 21, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("pre-break universal bumps = %d, want 0", bumps)
	}
	if bumps := verifyStream(t, sb, db, 22, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("pre-break bdenc bumps = %d, want 0", bumps)
	}

	// Sever the shared connection out from under both streams.
	eu0, eb0 := su.Epoch(), sb.Epoch()
	mu.Lock()
	last.Close()
	mu.Unlock()

	// The first post-break batch (on the bdenc stream) triggers the one
	// redial; the stream observes its own epoch bump mid-verify and resets
	// its decoder.
	if bumps := verifyStream(t, sb, db, 23, 10, 8); bumps != 1 || t.Failed() {
		t.Fatalf("post-break bdenc bumps = %d, want 1", bumps)
	}
	if got := sb.Epoch(); got != eb0+1 {
		t.Fatalf("bdenc epoch = %d, want %d", got, eb0+1)
	}
	// The sibling's epoch advanced with the same redial — before its own
	// next batch, exactly so stateful callers reset before decoding.
	if got := su.Epoch(); got != eu0+1 {
		t.Fatalf("universal epoch = %d, want %d (redial must bump every stream)", got, eu0+1)
	}
	du.Reset()
	if bumps := verifyStream(t, su, du, 24, 10, 8); bumps != 0 || t.Failed() {
		t.Fatalf("universal stream broken after redial (%d bumps)", bumps)
	}
	if got := m.Reconnects(); got != 1 {
		t.Fatalf("Reconnects() = %d, want 1", got)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dialer invoked %d times, want 2", got)
	}
}

// TestMuxCloseDuringTranscode closes a Mux while four sessions loop
// Transcode on it: every session must stop with ErrMuxClosed, and Close's
// marking of the sessions must not race their own closed checks. A
// session woken from awaiting a reply is ordered after Close by the dead
// connection; one pausing between batches, as each does here, is not, so
// under -race an unsynchronized pair shows.
func TestMuxCloseDuringTranscode(t *testing.T) {
	srv := startGateway(t)
	for round := 0; round < 5 && !t.Failed(); round++ {
		m, err := client.NewMux(srv.Addr(), client.Config{})
		if err != nil {
			t.Fatalf("NewMux: %v", err)
		}
		defer m.Close()
		var closing atomic.Bool
		var running, wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			s, err := m.Open("universal", 32)
			if err != nil {
				t.Fatalf("Open %d: %v", i, err)
			}
			running.Add(1)
			wg.Add(1)
			go func(s *client.Session, seed int64) {
				defer wg.Done()
				txns := muxTxns(rand.New(rand.NewSource(seed)), 8, 32)
				warm := false
				for n := 0; ; n++ {
					if n == 10 {
						running.Done()
						warm = true
					}
					_, err := s.Transcode(txns)
					if err != nil && (errors.Is(err, client.ErrMuxClosed) || !closing.Load()) {
						if !errors.Is(err, client.ErrMuxClosed) {
							t.Errorf("stream %d: Transcode before Close: %v", s.ID(), err)
						}
						if !warm {
							running.Done()
						}
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}(s, int64(round*4+i))
		}
		running.Wait()
		closing.Store(true)
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
	}
}

// TestMuxStream0Negotiated checks that the first Open's session, whose
// stream the Hello opens, carries the parameters the handshake negotiated
// — the same a Client gets for the scheme — and so decodes a metadata
// scheme from its first batch on.
func TestMuxStream0Negotiated(t *testing.T) {
	srv := startGateway(t)
	c, err := client.Dial(srv.Addr(), "bdenc", 32)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	m, err := client.NewMux(srv.Addr(), client.Config{})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	s, err := m.Open("bdenc", 32)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.MetaBits() != c.MetaBits() || s.BatchLimit() != c.BatchLimit() || c.MetaBits() == 0 {
		t.Fatalf("stream 0 negotiated meta %d bits, limit %d; a Client got %d, %d",
			s.MetaBits(), s.BatchLimit(), c.MetaBits(), c.BatchLimit())
	}
	if bumps := verifyStream(t, s, muxDecoder(t, "bdenc"), 5, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("stream 0 failed to decode (%d bumps)", bumps)
	}
}
