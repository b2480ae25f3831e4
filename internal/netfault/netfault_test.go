package netfault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("seed=7,reset=0.05,partial=0.02,delay=0.1,maxdelay=20ms,maxfaults=50")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, ResetProb: 0.05, PartialProb: 0.02, DelayProb: 0.1,
		MaxDelay: 20 * time.Millisecond, MaxFaults: 50}
	if c != want {
		t.Fatalf("ParseSpec = %+v, want %+v", c, want)
	}
	if !c.Enabled() {
		t.Fatal("full spec should be enabled")
	}
	// String renders back into ParseSpec's syntax.
	c2, err := ParseSpec(c.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", c.String(), err)
	}
	if c2 != c {
		t.Fatalf("String roundtrip = %+v, want %+v", c2, c)
	}

	if c, err := ParseSpec(""); err != nil || c.Enabled() {
		t.Fatalf("empty spec = %+v, %v; want disabled, nil", c, err)
	}
	// Delay without maxdelay injects nothing.
	if c, err := ParseSpec("delay=0.5"); err != nil || c.Enabled() {
		t.Fatalf("delay-only spec = %+v, %v; want disabled, nil", c, err)
	}
	for _, bad := range []string{"reset", "reset=x", "bogus=1", "maxdelay=fast", "seed=-1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

// pipePair returns a wrapped client conn talking to a raw server conn over a
// real TCP loopback socket.
func pipePair(t *testing.T, in *Injector) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := l.Accept()
		ch <- acc{c, err}
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { raw.Close(); a.c.Close() })
	return in.Conn(raw), a.c
}

// faultScript records the verdict sequence one wrapped connection draws, so
// determinism can be compared across injector instances.
func faultScript(cfg Config, rolls int) []verdict {
	in := NewInjector(cfg)
	c := in.Conn(nopConn{}).(*conn)
	out := make([]verdict, rolls)
	for i := range out {
		out[i], _ = c.roll(i%2 == 0)
	}
	return out
}

type nopConn struct{ net.Conn }

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 99, ResetProb: 0.1, PartialProb: 0.1, DelayProb: 0.2,
		MaxDelay: time.Millisecond}
	a := faultScript(cfg, 200)
	b := faultScript(cfg, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roll %d differs across same-seed injectors: %v vs %v", i, a[i], b[i])
		}
	}
	var faults int
	for _, v := range a {
		if v != vPass {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("0.4 total fault probability drew no faults in 200 rolls")
	}
	cfg.Seed = 100
	c := faultScript(cfg, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault scripts")
	}
}

func TestConnPassThrough(t *testing.T) {
	in := NewInjector(Config{}) // disabled: wrapping is the identity
	raw := nopConn{}
	if got := in.Conn(raw); got != net.Conn(raw) {
		t.Fatal("disabled injector should return the conn unwrapped")
	}

	// Enabled but zero-probability: bytes flow untouched.
	in = NewInjector(Config{Seed: 1, DelayProb: 0.0001, MaxDelay: time.Nanosecond})
	client, server := pipePair(t, in)
	msg := []byte("hello across the fault layer")
	go func() {
		client.Write(msg)
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("relayed %q, want %q", got, msg)
	}
}

func TestConnReset(t *testing.T) {
	in := NewInjector(Config{Seed: 3, ResetProb: 1})
	client, server := pipePair(t, in)
	if _, err := client.Write([]byte("doomed")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write on reset=1 conn = %v, want ErrInjectedReset", err)
	}
	// Every later operation fails too, and Close is a no-op.
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("read after kill = %v, want ErrInjectedReset", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("close after kill = %v", err)
	}
	// The peer observes a hard close.
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := server.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded across an injected reset")
	}
	if in.Resets() != 1 {
		t.Fatalf("Resets = %d, want 1", in.Resets())
	}
}

func TestConnPartialWrite(t *testing.T) {
	in := NewInjector(Config{Seed: 5, PartialProb: 1})
	client, server := pipePair(t, in)
	msg := bytes.Repeat([]byte("x"), 64)
	var got []byte
	var rerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, rerr = io.ReadAll(server)
	}()
	if _, err := client.Write(msg); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("partial write = %v, want ErrInjectedReset", err)
	}
	wg.Wait()
	// A strict prefix may land (an RST can also discard it); the full frame
	// never does.
	if rerr == nil && len(got) >= len(msg) {
		t.Fatalf("peer got %d bytes of a torn %d-byte write", len(got), len(msg))
	}
	if in.Resets() != 1 {
		t.Fatalf("Resets (incl. partials) = %d, want 1", in.Resets())
	}
}

func TestMaxFaultsBudget(t *testing.T) {
	// With the budget exhausted up front, a reset=1 config still passes all
	// traffic — sweeps rely on this to guarantee termination.
	in := NewInjector(Config{Seed: 9, ResetProb: 1, MaxFaults: 1})
	c1, s1 := pipePair(t, in)
	if _, err := c1.Write([]byte("a")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("first faulted op = %v, want ErrInjectedReset", err)
	}
	_ = s1
	c2, s2 := pipePair(t, in)
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatalf("post-budget write = %v, want nil", err)
	}
	got := make([]byte, 2)
	s2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(s2, got); err != nil || string(got) != "ok" {
		t.Fatalf("post-budget relay got %q, %v", got, err)
	}
	if in.Resets() != 1 {
		t.Fatalf("Resets = %d, want exactly the budget", in.Resets())
	}
}

// TestProxyRelayAndReset drives a live echo server through the proxy: a
// fault-free config relays bytes bit-exactly, and a reset-heavy config tears
// the relayed session down end to end.
func TestProxyRelayAndReset(t *testing.T) {
	// Echo server = the "real daemon".
	el, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer el.Close()
	go func() {
		for {
			c, err := el.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()

	p := NewProxy(el.Addr().String(), Config{Seed: 1, DelayProb: 0.0001, MaxDelay: time.Nanosecond})
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the proxy and back")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	c.Close()

	// Reset-everything proxy: the client-visible session dies — at the first
	// read, or already in the dial when the proxy's reset beats the client's
	// side of the handshake.
	pr := NewProxy(el.Addr().String(), Config{Seed: 2, ResetProb: 1})
	raddr, err := pr.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if rc, err := net.Dial("tcp", raddr.String()); err == nil {
		defer rc.Close()
		rc.SetDeadline(time.Now().Add(5 * time.Second))
		rc.Write([]byte("doomed"))
		if _, err := rc.Read(make([]byte, 1)); err == nil {
			t.Fatal("read through reset-everything proxy succeeded")
		}
	}
	if pr.In.Resets() == 0 {
		t.Fatal("proxy injected no resets under reset=1")
	}
}
