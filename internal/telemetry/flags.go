package telemetry

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"smartrefresh/internal/atomicio"
)

// Flags bundles the standard telemetry CLI surface shared by the
// commands: a trace output path, a metrics dump path, a pprof address
// and CPU/heap profile files. The zero value is valid; call Register (or
// RegisterNamed) on the command's FlagSet, Start after parsing, and
// Finish on exit.
//
// The sinks are created lazily, so a command that wires
// Tracer()/Registry() into its simulations pays nothing when the flags
// are unset: both return nil, the disabled telemetry path.
type Flags struct {
	TracePath   string
	MetricsPath string
	PprofAddr   string

	CPUProfilePath string
	MemProfilePath string

	tracer     *Tracer
	registry   *Registry
	cpuProfile *os.File
	memDone    bool
}

// Register installs the standard flag names -trace, -metrics and -pprof.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.RegisterNamed(fs, "trace", "metrics", "pprof")
}

// RegisterNamed installs the flags under custom names, for commands
// where a standard name is already taken (smartrefresh-sim's -trace
// replays an access trace, so its telemetry output is -trace-out).
func (f *Flags) RegisterNamed(fs *flag.FlagSet, traceName, metricsName, pprofName string) {
	fs.StringVar(&f.TracePath, traceName, "",
		"write DRAM command and engine job events to this file as Chrome trace-event JSON (open in Perfetto)")
	fs.StringVar(&f.MetricsPath, metricsName, "",
		"dump the metrics registry here at exit ('-' = stdout; a .csv suffix selects CSV, otherwise JSON)")
	fs.StringVar(&f.PprofAddr, pprofName, "",
		"serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.CPUProfilePath, "cpuprofile", "",
		"write a CPU profile of the whole run to this file (read it with go tool pprof)")
	fs.StringVar(&f.MemProfilePath, "memprofile", "",
		"write a heap profile to this file at exit (read it with go tool pprof)")
}

// Tracer returns the shared tracer, created on first call — or nil when
// no trace output was requested, which keeps the simulation hot paths on
// the allocation-free disabled path.
func (f *Flags) Tracer() *Tracer {
	if f.TracePath == "" {
		return nil
	}
	if f.tracer == nil {
		f.tracer = NewTracer()
	}
	return f.tracer
}

// Registry returns the shared metrics registry, or nil when no metrics
// dump was requested.
func (f *Flags) Registry() *Registry {
	if f.MetricsPath == "" {
		return nil
	}
	if f.registry == nil {
		f.registry = NewRegistry()
	}
	return f.registry
}

// Start brings up the pprof server and begins CPU profiling when
// requested, and returns immediately; the server runs for the life of
// the process. Pair it with a deferred StopProfiles so the profiles are
// complete on every exit path.
func (f *Flags) Start() error {
	if f.PprofAddr != "" {
		ln, err := net.Listen("tcp", f.PprofAddr)
		if err != nil {
			return fmt.Errorf("telemetry: pprof listen: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}
	if f.CPUProfilePath == "" || f.cpuProfile != nil {
		return nil
	}
	out, err := os.Create(f.CPUProfilePath)
	if err != nil {
		return fmt.Errorf("telemetry: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("telemetry: cpu profile: %w", err)
	}
	f.cpuProfile = out
	return nil
}

// StopProfiles stops the CPU profile and writes the heap profile, when
// requested. Calls after the first do nothing, so a command can both
// defer it and call Finish.
func (f *Flags) StopProfiles() error {
	var err error
	if f.cpuProfile != nil {
		pprof.StopCPUProfile()
		err = f.cpuProfile.Close()
		f.cpuProfile = nil
	}
	if f.MemProfilePath != "" && !f.memDone {
		f.memDone = true
		runtime.GC() // bring the allocation statistics up to date
		if werr := atomicio.WriteFile(f.MemProfilePath, pprof.WriteHeapProfile); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// Finish stops the profiles and writes the requested trace and metrics
// outputs.
func (f *Flags) Finish() error {
	if err := f.StopProfiles(); err != nil {
		return err
	}
	if f.tracer != nil {
		if err := f.tracer.WriteFile(f.TracePath); err != nil {
			return err
		}
		if n := f.tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "telemetry: %d trace events over the event limit were dropped\n", n)
		}
	}
	if f.registry != nil {
		write := f.registry.WriteJSON
		if strings.HasSuffix(f.MetricsPath, ".csv") {
			write = f.registry.WriteCSV
		}
		if f.MetricsPath == "-" {
			return write(os.Stdout)
		}
		// Atomic replacement: an encoding or I/O failure leaves any
		// previous dump at the path intact instead of a torn file.
		return atomicio.WriteFile(f.MetricsPath, func(w io.Writer) error {
			return write(w)
		})
	}
	return nil
}
