package dist

// Direct tests of the socket link: FIFO delivery in both directions, and
// ErrPeerDown, exactly once, for both ways a link goes down: the connection
// drops, or the peer stays connected but falls silent.

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

const testMsgType = 0x7f

func testLinkConfig() linkConfig {
	return linkConfig{HeartbeatEvery: 15 * time.Millisecond, PeerTimeout: 300 * time.Millisecond}
}

// linkRecorder collects delivered message bodies in order and counts
// onDown calls.
type linkRecorder struct {
	mu    sync.Mutex
	msgs  []uint32
	downs atomic.Int32
	down  chan error
}

func newLinkRecorder() *linkRecorder { return &linkRecorder{down: make(chan error, 4)} }

func (r *linkRecorder) onMsg(mt byte, body []byte) {
	if mt != testMsgType || len(body) != 4 {
		return
	}
	r.mu.Lock()
	r.msgs = append(r.msgs, binary.LittleEndian.Uint32(body))
	r.mu.Unlock()
}

func (r *linkRecorder) onDown(err error) {
	r.downs.Add(1)
	r.down <- err
}

func (r *linkRecorder) got() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint32(nil), r.msgs...)
}

func testMsg(i uint32) []byte {
	m := make([]byte, 5)
	m[0] = testMsgType
	binary.LittleEndian.PutUint32(m[1:], i)
	return m
}

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// linkPair wires a client link to a server link over one TCP connection.
type linkPair struct {
	client, server       *link
	clientRec, serverRec *linkRecorder
	clientDown           *metrics.Counter
}

func newLinkPair(t *testing.T) *linkPair {
	t.Helper()
	cc, sc := tcpPair(t)
	reg := metrics.NewRegistry()
	p := &linkPair{clientRec: newLinkRecorder(), serverRec: newLinkRecorder(),
		clientDown: reg.Counter("dist.peer_down")}
	p.server = newLink(sc, testLinkConfig(), metrics.NewRegistry().Counter("dist.peer_down"),
		p.serverRec.onMsg, p.serverRec.onDown)
	p.client = newLink(cc, testLinkConfig(), p.clientDown, p.clientRec.onMsg, p.clientRec.onDown)
	t.Cleanup(func() { p.client.close(); p.server.close() })
	return p
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLinkFIFOBothDirections(t *testing.T) {
	p := newLinkPair(t)
	const K = 500
	for i := uint32(0); i < K; i++ {
		if err := p.client.Send(testMsg(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.server.Send(testMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all deliveries", func() bool {
		return len(p.serverRec.got()) == K && len(p.clientRec.got()) == K
	})
	for name, rec := range map[string]*linkRecorder{"server": p.serverRec, "client": p.clientRec} {
		for i, v := range rec.got() {
			if v != uint32(i) {
				t.Fatalf("%s: position %d got %d (FIFO violated)", name, i, v)
			}
		}
	}
}

// TestLinkPeerDown: a link goes down, with ErrPeerDown delivered to onDown
// exactly once, when its connection drops and when its peer stays
// connected but never writes.
func TestLinkPeerDown(t *testing.T) {
	awaitDown := func(t *testing.T, rec *linkRecorder, within time.Duration) {
		t.Helper()
		select {
		case err := <-rec.down:
			if !errors.Is(err, ErrPeerDown) {
				t.Fatalf("down callback got %v, want ErrPeerDown", err)
			}
		case <-time.After(within):
			t.Fatalf("link never reported ErrPeerDown within %v", within)
		}
	}

	t.Run("dropped connection", func(t *testing.T) {
		p := newLinkPair(t)
		p.server.close() // the peer's end goes away; its own onDown stays quiet
		awaitDown(t, p.clientRec, 5*time.Second)
		for i := uint32(0); i < 3; i++ {
			if err := p.client.Send(testMsg(i)); !errors.Is(err, ErrPeerDown) {
				t.Fatalf("Send after down returned %v, want ErrPeerDown", err)
			}
		}
		time.Sleep(10 * testLinkConfig().HeartbeatEvery) // room for a second event
		if n := p.clientRec.downs.Load(); n != 1 {
			t.Fatalf("onDown fired %d times, want exactly 1", n)
		}
		if n := p.clientDown.Value(); n != 1 {
			t.Fatalf("dist.peer_down = %d, want 1", n)
		}
		if !p.client.isDown() {
			t.Fatal("isDown() false after peer-down")
		}
		if n := p.serverRec.downs.Load(); n != 0 {
			t.Fatalf("closed link fired onDown %d times", n)
		}
	})

	t.Run("silent peer", func(t *testing.T) {
		cc, _ := tcpPair(t) // the server end stays open and never writes
		rec := newLinkRecorder()
		cfg := testLinkConfig()
		start := time.Now()
		l := newLink(cc, cfg, metrics.NewRegistry().Counter("dist.peer_down"), rec.onMsg, rec.onDown)
		defer l.close()
		awaitDown(t, rec, cfg.PeerTimeout+time.Second)
		if el := time.Since(start); el < cfg.PeerTimeout {
			t.Fatalf("link went down after %v, before its %v peer timeout", el, cfg.PeerTimeout)
		}
		if err := l.Send(testMsg(1)); !errors.Is(err, ErrPeerDown) {
			t.Fatalf("Send after down returned %v, want ErrPeerDown", err)
		}
		if n := rec.downs.Load(); n != 1 {
			t.Fatalf("onDown fired %d times, want exactly 1", n)
		}
	})
}
