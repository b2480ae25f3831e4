package netfault

import (
	"fmt"
	"io"
	"net"
	"sync"
)

// Proxy is the out-of-process fault path: it sits between a real client and
// a real daemon (cmd/faultproxy wires it between graphfly serve and its clients,
// or between the dist coordinator and a graphfly worker), forwarding bytes
// both ways through the injector's fault mix. Killing the injected leg
// tears down the whole relayed connection, so both endpoints observe the
// fault — exactly what a mid-stream reset does in production.
type Proxy struct {
	Target string // dial address of the real endpoint
	In     *Injector

	l      net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewProxy builds a proxy toward target with cfg's fault mix.
func NewProxy(target string, cfg Config) *Proxy {
	return &Proxy{Target: target, In: NewInjector(cfg), conns: make(map[net.Conn]struct{})}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Close.
func (p *Proxy) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netfault: proxy listen: %w", err)
	}
	p.l = l
	p.wg.Add(1)
	go p.acceptLoop()
	return l.Addr(), nil
}

// Addr returns the proxy's listen address (valid after Start).
func (p *Proxy) Addr() net.Addr { return p.l.Addr() }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.l.Accept()
		if err != nil {
			return // listener closed
		}
		if !p.track(c) {
			c.Close()
			return
		}
		p.wg.Add(1)
		go p.relay(c)
	}
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// relay connects one accepted client to the target and pumps bytes through
// the fault-injected wrapper until either side dies.
func (p *Proxy) relay(client net.Conn) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer client.Close()
	upstream, err := net.Dial("tcp", p.Target)
	if err != nil {
		return
	}
	defer upstream.Close()
	// Inject on the client leg only: one wrapped conn per relayed session
	// keeps the fault schedule a function of the session ordinal.
	faulted := p.In.Conn(client)
	done := make(chan struct{}, 2)
	go func() { io.Copy(upstream, faulted); done <- struct{}{} }()
	go func() { io.Copy(faulted, upstream); done <- struct{}{} }()
	<-done // either direction dying tears down both legs via the defers
}

// Close stops accepting and tears down every relayed connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	if p.l != nil {
		p.l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}
