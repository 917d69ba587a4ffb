package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartrefresh/internal/trace"
)

func TestGenerateBinaryTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.trc")
	if err := run([]string{"-benchmark", "fasta", "-duration-ms", "2", "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := trace.NewBinaryReader(f)
	n := 0
	var last trace.Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Time < last.Time {
			t.Fatal("trace out of order")
		}
		last = rec
		n++
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
}

func TestGenerateTextTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := run([]string{"-benchmark", "gcc", "-stacked", "-duration-ms", "1", "-format", "text", "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := trace.NewTextReader(f)
	if _, ok := r.Next(); !ok {
		t.Fatalf("no records: %v", r.Err())
	}
}

// TestGenerateGzipTrace: -gzip output is a well-formed gzip stream
// whose payload is byte-identical to the uncompressed run, and the
// sniffing StreamSource replays it transparently.
func TestGenerateGzipTrace(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "out.trc")
	packed := filepath.Join(dir, "out.trc.gz")
	args := []string{"-benchmark", "fasta", "-duration-ms", "2", "-o"}
	if err := run(append(args, plain), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-gzip"}, append(args, packed)...), io.Discard); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(packed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("gzip trailer invalid: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("gzip payload differs from plain output: %d vs %d bytes", len(got), len(want))
	}

	g, err := os.Open(packed)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	src, err := trace.NewStreamSource(g, trace.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !src.Gzipped() || src.Format() != trace.FormatBinary {
		t.Errorf("sniffed format=%v gzipped=%v", src.Format(), src.Gzipped())
	}
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records replayed from gzip trace")
	}
}

func TestGenerateErrors(t *testing.T) {
	if err := run([]string{"-benchmark", "nope"}, io.Discard); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-format", "xml", "-o", filepath.Join(t.TempDir(), "x")}, io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestDurationFlag: -duration-ms is range-checked before anything is
// written. A value at the int64 picosecond boundary passes the check and
// fails later on the unknown format; one past it, or a negative value,
// is rejected by name.
func TestDurationFlag(t *testing.T) {
	cases := []struct{ value, want string }{
		{"-5", "-duration-ms: sim: negative count -5"},
		{"18446744074", "-duration-ms: sim: 18446744074 x 1ms overflows"},
		{"9223372037", "-duration-ms: sim: 9223372037 x 1ms overflows"},
		{"9223372036", "unknown format"},
	}
	for _, c := range cases {
		err := run([]string{"-duration-ms", c.value, "-format", "xml", "-o", filepath.Join(t.TempDir(), "x")}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-duration-ms %s: error %v, want it to contain %q", c.value, err, c.want)
		}
	}
}

// A stdout reader that disappears (closed pipe) must turn into a
// non-zero exit, not a silently truncated trace: the buffered writers
// only hit the pipe at flush time, and that flush error has to
// propagate out of run.
func TestStdoutWriteErrorFails(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	defer w.Close()
	if err := run([]string{"-benchmark", "fasta", "-duration-ms", "8"}, w); err == nil {
		t.Error("run reported no error writing to a closed pipe")
	}
}

// File output is atomic: a failed run (unwritable directory) leaves
// nothing behind, and rerunning over an existing trace replaces it
// without temp litter.
func TestFileOutputAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.trc")
	if err := run([]string{"-benchmark", "fasta", "-duration-ms", "1", "-o",
		filepath.Join(dir, "missing", "out.trc")}, io.Discard); err == nil {
		t.Error("run reported no error for an unwritable output directory")
	}
	for i := 0; i < 2; i++ {
		if err := run([]string{"-benchmark", "fasta", "-duration-ms", "1", "-o", path}, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("directory holds %d entries, want just the trace (no temp litter)", len(ents))
	}
}
