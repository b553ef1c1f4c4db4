package client_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// startGateway runs a loopback bxtd for the client to talk to.
func startGateway(t *testing.T) *server.Server {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	cfg := config.DefaultServer()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.LogLevel = "error"
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestDialContextCanceled verifies a canceled context aborts connection
// establishment instead of waiting out the dial timeout.
func TestDialContextCanceled(t *testing.T) {
	// A listener that never accepts: the dial itself would succeed, so
	// cancel before dialing to exercise the context path deterministically.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = client.DialContext(ctx, ln.Addr().String(), "universal", 32, client.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DialContext = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("canceled dial took %v, want immediate return", waited)
	}
}

// TestDialContextExpires verifies a context deadline bounds the dial even
// when cfg.DialTimeout is longer.
func TestDialContextExpires(t *testing.T) {
	// RFC 5737 TEST-NET-1 address: connect attempts hang until a timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.DialContext(ctx, "192.0.2.1:9650", "universal", 32,
		client.Config{DialTimeout: time.Hour})
	if err == nil {
		t.Fatal("DialContext to a black-hole address succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("expired dial took %v, want ~50ms", waited)
	}
}

// notifyConn counts itself closed exactly once, however many times the
// client's cleanup paths call Close.
type notifyConn struct {
	net.Conn
	once   sync.Once
	closed *atomic.Int32
}

func (c *notifyConn) Close() error {
	c.once.Do(func() { c.closed.Add(1) })
	return c.Conn.Close()
}

// TestDialContextCancelMidHandshake cancels the context after the TCP dial
// succeeded but while the handshake is stuck awaiting a HelloOK that never
// comes. DialContext must return promptly with context.Canceled and every
// connection the dialer opened must be closed — the socket-leak regression
// this test pins down.
func TestDialContextCancelMidHandshake(t *testing.T) {
	// A server that accepts and then stays silent: the client's Hello
	// write succeeds, and the handshake blocks reading the reply.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	var opened, closed atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := client.Config{
		// Only the context may end the handshake; a short IOTimeout
		// would mask a missing cancellation path.
		IOTimeout: time.Hour,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			opened.Add(1)
			return &notifyConn{Conn: conn, closed: &closed}, nil
		},
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := client.DialContext(ctx, ln.Addr().String(), "universal", 32, cfg)
		errCh <- err
	}()
	// Wait for the dial to land so the cancel strikes mid-handshake.
	for deadline := time.Now().Add(5 * time.Second); opened.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("dialer never opened a connection")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DialContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DialContext still blocked 5s after cancellation")
	}
	// The AfterFunc close runs on its own goroutine; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for closed.Load() != opened.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d connections closed; the rest leaked",
				closed.Load(), opened.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDialWrappersAndTracer checks Dial/DialConfig still work as thin
// wrappers, and that a Client and a Mux Session alike honor the tracing
// config: a Tracer sees one frame_write and one frame_read observation per
// Transcode, and a Trace ring records one span per batch under the trace
// id LastTraceID reports.
func TestDialWrappersAndTracer(t *testing.T) {
	srv := startGateway(t)

	c, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.Close()

	for _, kind := range []string{"client", "session"} {
		t.Run(kind, func(t *testing.T) {
			tr := obs.NewHistogramTracer(nil)
			ring := obs.NewTraceRing(64)
			cfg := client.Config{Tracer: tr, Trace: ring}
			var tx transcoder
			if kind == "client" {
				c, err := client.DialConfig(srv.Addr(), "universal", 32, cfg)
				if err != nil {
					t.Fatalf("DialConfig: %v", err)
				}
				defer c.Close()
				tx = c
			} else {
				m, err := client.NewMux(srv.Addr(), cfg)
				if err != nil {
					t.Fatalf("NewMux: %v", err)
				}
				defer m.Close()
				s, err := m.Open("universal", 32)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				tx = s
			}

			rng := rand.New(rand.NewSource(1))
			const batches = 5
			for b := 0; b < batches; b++ {
				txns := make([]trace.Transaction, 16)
				for i := range txns {
					data := make([]byte, 32)
					rng.Read(data)
					txns[i] = trace.Transaction{Addr: uint64(i * 32), Kind: trace.Read, Data: data}
				}
				if _, err := tx.Transcode(txns); err != nil {
					t.Fatalf("Transcode %d: %v", b, err)
				}
				if spans := ring.Find(tx.LastTraceID()); len(spans) != 1 {
					t.Errorf("batch %d: %d spans under trace id %#x, want 1", b, len(spans), tx.LastTraceID())
				}
			}
			for _, stage := range []obs.Stage{obs.StageFrameWrite, obs.StageFrameRead} {
				if got := tr.Hist("universal", stage).Count(); got != batches {
					t.Errorf("tracer %s count = %d, want %d", stage, got, batches)
				}
			}
			if got := ring.Total(); got != batches {
				t.Errorf("trace ring holds %d spans, want %d", got, batches)
			}
		})
	}
}
