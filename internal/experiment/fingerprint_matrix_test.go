package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smartrefresh/internal/check"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

var updateMatrix = flag.Bool("update", false, "rewrite testdata/fingerprint_matrix.txt from this tree")

const matrixGolden = "testdata/fingerprint_matrix.txt"

// matrixJob builds one cell of the fingerprint matrix the way
// smartrefresh-sim builds its job: the table2 presets run through the 3D
// cache front end, and raidr and smart-retention are programmed from a
// retention map profiled from the benchmark seed.
func matrixJob(cfg config.DRAM, prof workload.Profile, kind PolicyKind, ladder bool) Job {
	opts := RunOptions{
		Warmup:  4 * sim.Millisecond,
		Measure: 8 * sim.Millisecond,
		Stacked: strings.HasPrefix(cfg.Name, "table2"),
		Shards:  1,
	}
	if ladder {
		pol := PowerStatePolicies()[len(PowerStatePolicies())-1]
		opts.SelfRefreshAfter, opts.PowerStates = pol.SelfRefreshAfter, pol.Cfg
	}
	job := Job{Cfg: cfg, Prof: prof, Policy: kind, Opts: opts}
	switch kind {
	case PolicyRAIDR, PolicySmartRetention:
		rmap := core.NewRetentionMap(cfg.Geometry, core.DefaultRetentionClasses(), prof.Seed())
		job.RetentionMap = rmap
		if kind == PolicyRAIDR {
			job.MakePolicy = func() core.Policy {
				return core.NewRAIDR(cfg.Geometry, cfg.RefreshInterval(), core.DefaultRAIDRConfig(), rmap)
			}
		} else {
			job.Cfg.Smart.SelfDisable = false
			smart := job.Cfg.Smart
			job.MakePolicy = func() core.Policy {
				return core.NewRetentionAwareSmart(cfg.Geometry, cfg.RefreshInterval(), smart, rmap)
			}
		}
	}
	return job
}

// fingerprintMatrix renders one line per cell: all nine policies on every
// preset for gcc and radix at a 4+8 ms window, plus the ladder-full
// power-state policy for smart and cbr. A cell that cannot run (raidr and
// smart-retention on a vaulted preset) records its error string.
func fingerprintMatrix(t *testing.T) string {
	t.Helper()
	presets := config.Presets()
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	var jobs []Job
	var labels []string
	for _, name := range names {
		for _, bench := range []string{"gcc", "radix"} {
			prof, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			for k := PolicyCBR; k <= PolicySmartRetention; k++ {
				jobs = append(jobs, matrixJob(presets[name], prof, k, false))
				labels = append(labels, fmt.Sprintf("%s %s %s", name, bench, k))
			}
			for _, k := range []PolicyKind{PolicySmart, PolicyCBR} {
				jobs = append(jobs, matrixJob(presets[name], prof, k, true))
				labels = append(labels, fmt.Sprintf("%s %s %s/ladder-full", name, bench, k))
			}
		}
	}
	results := NewEngine(2).RunJobs(jobs)
	var b strings.Builder
	for i, res := range results {
		if res.Err != nil {
			fmt.Fprintf(&b, "%s error: %v\n", labels[i], res.Err)
			continue
		}
		fmt.Fprintf(&b, "%s %s\n", labels[i], check.Fingerprint(res))
	}
	return b.String()
}

// TestFingerprintMatrix pins check.Fingerprint of every matrix cell. It
// covers the paths no figure table reaches — RAIDR, smart-retention,
// SARP's overlapped refresh and the power-state ladder's exits — so a
// change meant to be byte-identical shows it here. A change that means
// to move results regenerates the file with `go test -run
// TestFingerprintMatrix -update` and names the moved cells.
func TestFingerprintMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 110 short simulations")
	}
	got := fingerprintMatrix(t)
	if *updateMatrix {
		if err := os.MkdirAll(filepath.Dir(matrixGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matrixGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(matrixGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("cell %d:\n got  %s\n want %s", i, g, w)
		}
	}
}
