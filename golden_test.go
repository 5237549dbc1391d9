package memento

import (
	"context"
	"os"
	"strings"
	"testing"

	"memento/internal/config"
	"memento/internal/experiments"
)

// TestExperimentsGolden renders every experiment and diffs the output
// against the committed experiments_output.txt, byte for byte. The golden
// file is what `go run ./cmd/experiments` prints; any change to simulator
// timing, trace generation, or table formatting shows up here first.
//
// Regenerate the golden after an intentional change with:
//
//	go run ./cmd/experiments > experiments_output.txt
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short mode")
	}
	if raceEnabled {
		// The sweep is race-exercised by the experiments package tests; the
		// byte-for-byte diff adds only wall-clock under the race detector and
		// would push the package past the test timeout on small CI runners.
		t.Skip("full experiment sweep; skipped under the race detector")
	}
	s := experiments.NewSuite(config.Default())
	exps, err := s.All(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "experiments_output.txt", exps)
}

// TestExperimentsWarmGolden pins the warm-start study the same way: its
// setup-cycle numbers derive from the snapshot layer, so any drift in what
// a checkpoint captures (or what restore skips) shows up here. Regenerate
// with:
//
//	go run ./cmd/experiments -warm > experiments_warm_output.txt
func TestExperimentsWarmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full experiment sweep; skipped under the race detector")
	}
	s := experiments.NewSuite(config.Default())
	e, err := experiments.WarmStarts(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := experiments.WarmBytes(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "experiments_warm_output.txt", []experiments.Experiment{e, eb})
}

// TestExperimentsFleetGolden pins the fleet simulation study byte for
// byte: the 18-row pattern x policy x stack table depends on the arrival
// generator, the discrete-event scheduler, every shipped policy, and the
// machine-backed cost model, so any drift in any layer surfaces here.
// Regenerate with:
//
//	go run ./cmd/experiments -fleet > experiments_fleet_output.txt
func TestExperimentsFleetGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet sweep; skipped in -short mode")
	}
	if raceEnabled {
		// Fleet determinism is race-exercised by the internal/fleet tests and
		// the CI fleet smoke job; the 18-run sweep would only add wall-clock.
		t.Skip("full fleet sweep; skipped under the race detector")
	}
	s := experiments.NewSuite(config.Default())
	e, err := experiments.FleetStudy(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "experiments_fleet_output.txt", []experiments.Experiment{e})
}

// diffGolden renders the experiments exactly as cmd/experiments prints them
// and diffs against the committed golden file, line by line.
func diffGolden(t *testing.T, golden string, exps []experiments.Experiment) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var sb strings.Builder
	for _, e := range exps {
		sb.WriteString(e.Render())
		sb.WriteByte('\n')
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("experiment output diverges from %s at line %d:\n got: %q\nwant: %q", golden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("experiment output length diverges from %s: got %d lines, want %d", golden, len(gotLines), len(wantLines))
}
