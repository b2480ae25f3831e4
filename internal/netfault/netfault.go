// Package netfault is the seeded network-fault layer: a net.Conn wrapper
// and Proxy, an in-path TCP proxy built on it (cmd/faultproxy runs one in
// front of the real binaries). They inject the failure shapes a deployed
// network path actually sees — connections reset mid-stream, writes that
// land partially before the peer vanishes, and stalls long enough to trip
// deadlines — deterministically from a seed, so every chaos scenario in the
// oracle sweeps replays bit-exactly.
//
// Faults are injected at I/O boundaries, never by corrupting bytes: the CRC
// framing already proves corruption is detected (internal/wal codec tests),
// while *lost* and *duplicated* deliveries are what the layers above must
// survive: the serving client's exactly-once resume, and the cluster's
// membership, to which a reset is a worker that left.
package netfault

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// ErrInjectedReset is the error surfaced by a connection the injector chose
// to kill; the peer observes a real TCP reset (or EOF) mid-stream.
var ErrInjectedReset = errors.New("netfault: injected connection reset")

// Config is one seeded fault mix. Probabilities are per I/O operation
// (Read/Write call), matching how real faults interleave with the session
// protocol's frame boundaries.
type Config struct {
	Seed uint64
	// ResetProb kills the connection in place of the operation: in-flight
	// and future I/O on it fails, and the peer sees a hard close.
	ResetProb float64
	// PartialProb truncates a write to a strict prefix and then kills the
	// connection — the torn-frame shape a crashed peer leaves behind.
	PartialProb float64
	// DelayProb stalls an operation by a uniform duration in (0, MaxDelay].
	DelayProb float64
	MaxDelay  time.Duration
	// MaxFaults bounds injected resets+partials per Config (0 = unlimited);
	// sweeps use it so every scenario still terminates.
	MaxFaults int64
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.ResetProb > 0 || c.PartialProb > 0 || (c.DelayProb > 0 && c.MaxDelay > 0)
}

// String renders the config in ParseSpec's syntax.
func (c Config) String() string {
	return fmt.Sprintf("seed=%d,reset=%g,partial=%g,delay=%g,maxdelay=%s,maxfaults=%d",
		c.Seed, c.ResetProb, c.PartialProb, c.DelayProb, c.MaxDelay, c.MaxFaults)
}

// ParseSpec parses a CLI fault mix of the form
// "seed=7,reset=0.05,partial=0.02,delay=0.1,maxdelay=20ms,maxfaults=50"
// (every component optional). An empty spec returns a disabled Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if spec == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("netfault: spec %q: want key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 10, 64)
		case "reset":
			c.ResetProb, err = strconv.ParseFloat(v, 64)
		case "partial":
			c.PartialProb, err = strconv.ParseFloat(v, 64)
		case "delay":
			c.DelayProb, err = strconv.ParseFloat(v, 64)
		case "maxdelay":
			c.MaxDelay, err = time.ParseDuration(v)
		case "maxfaults":
			c.MaxFaults, err = strconv.ParseInt(v, 10, 64)
		default:
			return c, fmt.Errorf("netfault: spec: unknown key %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("netfault: spec %s=%q: %v", k, v, err)
		}
	}
	return c, nil
}

// Injector owns the fault budget and hands out per-connection deterministic
// RNG streams: connection i's behavior depends only on (Seed, i), not on
// goroutine scheduling, so a seeded scenario replays the same fault script.
type Injector struct {
	cfg    Config
	conns  atomic.Uint64
	faults atomic.Int64
	stats  Stats
}

// Stats counts what an injector actually did.
type Stats struct {
	Resets   atomic.Int64
	Partials atomic.Int64
	Delays   atomic.Int64
}

// NewInjector builds an injector for one seeded config.
func NewInjector(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Resets returns the number of injected resets (including partial-write
// kills).
func (in *Injector) Resets() int64 { return in.stats.Resets.Load() + in.stats.Partials.Load() }

// Delays returns the number of injected stalls.
func (in *Injector) Delays() int64 { return in.stats.Delays.Load() }

// spend consumes one unit of the fault budget; false = budget exhausted.
func (in *Injector) spend() bool {
	if in.cfg.MaxFaults <= 0 {
		return true
	}
	return in.faults.Add(1) <= in.cfg.MaxFaults
}

// Conn wraps c with this injector's fault mix. Each wrapped connection gets
// its own RNG stream derived from the seed and the connection ordinal.
func (in *Injector) Conn(c net.Conn) net.Conn {
	if !in.cfg.Enabled() {
		return c
	}
	ord := in.conns.Add(1)
	return &conn{
		Conn: c,
		in:   in,
		rng:  rng.New(rng.Mix64(in.cfg.Seed ^ ord*0x9e3779b97f4a7c15)),
	}
}

// conn injects the configured fault mix around the embedded connection's
// Read/Write. Methods may run concurrently (one reader, one writer is the
// session protocol's shape); mu guards the shared RNG stream.
type conn struct {
	net.Conn
	in     *Injector
	rng    *rng.Xoshiro256
	mu     sync.Mutex
	killed atomic.Bool
}

type verdict int

const (
	vPass verdict = iota
	vReset
	vPartial
	vDelay
)

// roll draws the next fault verdict and, for delays, a stall duration.
func (c *conn) roll(forWrite bool) (verdict, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := c.in.cfg
	p := c.rng.Float64()
	switch {
	case p < cfg.ResetProb:
		if c.in.spend() {
			return vReset, 0
		}
	case forWrite && p < cfg.ResetProb+cfg.PartialProb:
		if c.in.spend() {
			return vPartial, 0
		}
	case cfg.MaxDelay > 0 && p < cfg.ResetProb+cfg.PartialProb+cfg.DelayProb:
		return vDelay, time.Duration(1 + c.rng.Uint64n(uint64(cfg.MaxDelay)))
	}
	return vPass, 0
}

// kill hard-closes the connection so the peer sees a reset/EOF and every
// local operation fails from here on.
func (c *conn) kill() error {
	if c.killed.CompareAndSwap(false, true) {
		if tc, ok := c.Conn.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN: the harshest shape
		}
		c.Conn.Close()
	}
	return ErrInjectedReset
}

func (c *conn) Read(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, ErrInjectedReset
	}
	switch v, d := c.roll(false); v {
	case vReset:
		c.in.stats.Resets.Add(1)
		return 0, c.kill()
	case vDelay:
		c.in.stats.Delays.Add(1)
		time.Sleep(d)
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, ErrInjectedReset
	}
	switch v, d := c.roll(true); v {
	case vReset:
		c.in.stats.Resets.Add(1)
		return 0, c.kill()
	case vPartial:
		c.in.stats.Partials.Add(1)
		if n := len(p) / 2; n > 0 {
			c.Conn.Write(p[:n])
		}
		return 0, c.kill()
	case vDelay:
		c.in.stats.Delays.Add(1)
		time.Sleep(d)
	}
	return c.Conn.Write(p)
}

func (c *conn) Close() error {
	if c.killed.Load() {
		return nil
	}
	return c.Conn.Close()
}
