// Command experiments regenerates the tables and figures of Johnsson & Ho's
// matrix-transposition paper on the simulated machines.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig10
//	experiments -all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"boolcube/internal/exper"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	flag := flag.NewFlagSet("experiments", flag.ContinueOnError)
	list := flag.Bool("list", false, "list experiment ids")
	id := flag.String("exp", "", "run one experiment by id")
	all := flag.Bool("all", false, "run every experiment")
	format := flag.String("format", "text", "output format: text, md, json")
	par := flag.Int("parallel", 0, "experiments to generate concurrently with -all (0 = all cores)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	if err := flag.Parse(args); err != nil {
		return err
	}
	render, ok := renderers[*format]
	if !ok {
		return fmt.Errorf("unknown format %q", *format)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle retained heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	switch {
	case *list:
		for _, id := range exper.IDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	case *id != "":
		return run(out, *id, render)
	case *all:
		return runAll(out, *par, render)
	default:
		flag.Usage()
		return fmt.Errorf("one of -list, -exp, -all required")
	}
}

// renderers maps each -format value to its table rendering.
var renderers = map[string]func(*exper.Table) string{
	"text": (*exper.Table).String,
	"md":   (*exper.Table).Markdown,
	"json": (*exper.Table).JSON,
}

// runAll generates every experiment through the parallel sweep harness
// (exper.RunMany, up to par workers) and prints the results in id order;
// the output is byte-identical to a serial run for any par.
func runAll(out io.Writer, par int, render func(*exper.Table) string) error {
	tabs, err := exper.RunMany(exper.IDs(), par)
	if err != nil {
		return err
	}
	for _, tab := range tabs {
		fmt.Fprintln(out, render(tab))
	}
	return nil
}

func run(out io.Writer, id string, render func(*exper.Table) string) error {
	tab, err := exper.Run(id)
	if err != nil {
		return err
	}
	fmt.Fprint(out, render(tab))
	return nil
}
