// Command graphfly is the one binary of this reproduction. Its subcommands
// share one set of flag groups (workload, algorithm, engine + WAL, -addr):
//
//	graphfly [run] …    run an algorithm over a generated or loaded stream
//	graphfly serve …    long-lived serving daemon over a durable engine
//	graphfly query OP … client of a serving daemon
//	graphfly worker …   one worker process of the socket cluster runtime
//	graphfly gen …      write a dataset and its update stream to disk
//
// Examples (cf. the artifact appendix):
//
//	graphfly -algo BFS  -source 1 -numberOfUpdateBatches 2 -nEdges 10000 -dataset LJ
//	graphfly -algo SSSP -source 1 -nEdges 100000 -dataset UK -deletions 0.3
//	graphfly -algo LabelPropagation -dataset LJ -labels 4
//	graphfly gen -dataset UK -nEdges 100000 -numberOfUpdateBatches 5 -out /tmp/uk
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/gio"
)

// subcommands maps each subcommand to the constructor of its flag set and
// of the function that runs it once the flags are parsed.
var subcommands = map[string]func() (*flag.FlagSet, func()){
	"run":    runCmd,
	"serve":  serveCmd,
	"query":  queryCmd,
	"worker": workerCmd,
	"gen":    genCmd,
}

// cmdline is the running subcommand's flag set: its name prefixes every
// diagnostic and its usage follows every rejected input.
var cmdline *flag.FlagSet

func main() {
	name, args := "run", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	sub, ok := subcommands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "graphfly: unknown subcommand %q\nusage: graphfly [run | serve | query <op> | worker | gen] [flags]\n", name)
		os.Exit(2)
	}
	var run func()
	cmdline, run = sub()
	cmdline.Parse(args)
	run()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, cmdline.Name()+": "+format+"\n", args...)
	os.Exit(1)
}

// usagef rejects bad command-line input: the message, the usage, exit 2.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, cmdline.Name()+": "+format+"\n", args...)
	cmdline.Usage()
	os.Exit(2)
}

// must exits 1 on a runtime error; usage exits 2 on bad input.
func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func usage(err error) {
	if err != nil {
		usagef("%v", err)
	}
}

// genCmd materializes the dataset workload in the artifact's formats: an
// edge-tuple file for the initial graph and a stream file of batched
// additions/deletions, so external tools (or re-runs) consume identical
// inputs.
func genCmd() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("graphfly gen", flag.ExitOnError)
	wl := addWorkload(fs, 10000, 3)
	out := fs.String("out", "", "output path prefix (required): writes <out>.edges and <out>.stream")
	return fs, func() {
		usage(wl.check())
		if *out == "" {
			usagef("-out is required")
		}
		w := wl.build(*wl.batches)
		must(gio.SaveEdgesFile(*out+".edges", w.Initial))
		must(gio.SaveStreamFile(*out+".stream", w.Batches))
		fmt.Printf("wrote %s.edges (%d edges) and %s.stream (%d batches x ~%d updates)\n",
			*out, len(w.Initial), *out, len(w.Batches), *wl.nEdges)
	}
}
