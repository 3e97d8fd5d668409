package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestPaperSecondsRejected runs the CLI — this test binary re-executed
// as main — on paper experiments with windows Normalize rejects: each
// must exit 2 with Normalize's message before anything runs, where it
// used to print 0% rows, "NaNs windows" or run out of memory.
func TestPaperSecondsRejected(t *testing.T) {
	if args := os.Getenv("PICTOR_BENCH_ARGS"); args != "" {
		os.Args = append([]string{"pictor-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-exp fig8 -seconds NaN",
		"-exp fig8 -seconds -5",
		"-exp fig8 -seconds Inf",
		"-exp tab3 -seconds NaN",
		"-exp grid -seconds NaN",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPaperSecondsRejected$")
		cmd.Env = append(os.Environ(), "PICTOR_BENCH_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(out), "spec: seconds and warmup must be finite and >= 0") {
			t.Errorf("pictor-bench %s: %v, output %q; want exit 2 with Normalize's message", args, err, out)
		}
	}
}
