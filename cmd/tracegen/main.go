// Command tracegen emits a synthetic benchmark access trace in the text
// or binary trace format, for standalone replay with smartrefresh-sim
// -trace or external tools.
//
// Examples:
//
//	tracegen -benchmark gcc -duration-ms 100 -o gcc.trc
//	tracegen -benchmark mummer -stacked -format text -o mummer.txt
//	tracegen -benchmark gcc -duration-ms 1000 -gzip -o gcc.trc.gz
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"

	"smartrefresh/internal/atomicio"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "gcc", "benchmark profile name")
	stacked := fs.Bool("stacked", false, "emit the 3D-cache stream instead of the main-memory stream")
	durationMS := fs.Int("duration-ms", 128, "trace length in simulated milliseconds")
	format := fs.String("format", "binary", "output format: binary or text")
	gz := fs.Bool("gzip", false, "gzip-compress the output (replay tools auto-detect)")
	out := fs.String("o", "-", "output file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	end, err := sim.FromUnits(int64(*durationMS), sim.Millisecond)
	if err != nil {
		return fmt.Errorf("-duration-ms: %w", err)
	}

	prof, err := workload.ByName(*benchmark)
	if err != nil {
		return err
	}
	switch *format {
	case "binary", "text":
	default:
		return fmt.Errorf("unknown format %q (want binary or text)", *format)
	}

	var n uint64
	generate := func(w io.Writer) error {
		var zw *gzip.Writer
		if *gz {
			zw = gzip.NewWriter(w)
			w = zw
		}
		var write func(trace.Record) error
		var flush func() error
		switch *format {
		case "binary":
			bw := trace.NewBinaryWriter(w)
			write, flush = bw.Write, bw.Flush
		case "text":
			tw := trace.NewTextWriter(w)
			write, flush = tw.Write, tw.Flush
		}
		src := prof.NewSource(*stacked)
		n = 0
		for {
			rec, ok := src.Next()
			if !ok || rec.Time > end {
				break
			}
			if err := write(rec); err != nil {
				return err
			}
			n++
		}
		if err := flush(); err != nil {
			return err
		}
		if zw != nil {
			// Close, not Flush: the gzip trailer (CRC + size) is what lets
			// a replayer detect truncation.
			return zw.Close()
		}
		return nil
	}

	// Streaming to stdout reports flush errors directly (a reader that
	// closed the pipe makes the run fail rather than exit zero with a
	// truncated trace); file output goes through the atomic temp+rename
	// writer, so an error at any stage leaves no partial trace behind.
	if *out == "-" {
		if err := generate(stdout); err != nil {
			return err
		}
	} else if err := atomicio.WriteFile(*out, generate); err != nil {
		return err
	}
	suffix := ""
	if *gz {
		suffix = ", gzip"
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d records over %d ms (%s, %s stream%s)\n",
		n, *durationMS, *format, streamName(*stacked), suffix)
	return nil
}

func streamName(stacked bool) string {
	if stacked {
		return "3D-cache"
	}
	return "main-memory"
}
