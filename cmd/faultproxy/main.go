// faultproxy is the serving path's chaos tap: a TCP proxy that forwards one
// listen address to a real graphfly serve (or graphfly worker) while injecting
// seeded resets, partial writes, and delays per internal/netfault. check.sh
// parks it between the client and the daemon to prove exactly-once client
// resume end to end on the real binaries.
//
// Usage:
//
//	faultproxy -listen 127.0.0.1:0 -target 127.0.0.1:4242 \
//	    -netfault seed=7,reset=0.05,partial=0.02,delay=0.1,maxdelay=20ms
//
// It prints "faultproxy listening on ADDR -> TARGET" once ready (the same
// wait-for-line contract graphfly serve uses) and serves until SIGINT/SIGTERM,
// then reports how many faults it injected.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/netfault"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to accept clients on")
	target := flag.String("target", "", "address of the real daemon (required)")
	spec := flag.String("netfault", "", "seeded fault mix, e.g. seed=7,reset=0.05,partial=0.02,delay=0.1,maxdelay=20ms,maxfaults=50")
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "faultproxy: -target is required")
		os.Exit(2)
	}
	cfg, err := netfault.ParseSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultproxy:", err)
		os.Exit(2)
	}
	p := netfault.NewProxy(*target, cfg)
	addr, err := p.Start(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultproxy:", err)
		os.Exit(1)
	}
	fmt.Printf("faultproxy listening on %s -> %s (%s)\n", addr, *target, cfg)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	p.Close()
	fmt.Printf("faultproxy done: %d resets, %d delays injected\n", p.In.Resets(), p.In.Delays())
}
