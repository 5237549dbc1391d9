package memento

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"memento/internal/config"
	"memento/internal/experiments"
	"memento/internal/validate"
)

// TestExperimentsMDGolden pins EXPERIMENTS.md against its generator: the
// checked-in file must be byte-identical to what `go run ./cmd/validate
// -md` emits from the target registry. Editing the file by hand, or
// changing a registry target (paper value, tolerance, claim text) without
// regenerating, fails here. Regenerate with:
//
//	go run ./cmd/validate -md > EXPERIMENTS.md
func TestExperimentsMDGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short mode")
	}
	if raceEnabled {
		// The underlying sweep is race-exercised by the experiments package
		// tests; rerunning it here would only add wall-clock under the race
		// detector.
		t.Skip("full experiment sweep; skipped under the race detector")
	}
	want, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	s := experiments.NewSuite(config.Default())
	sc, err := validate.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := validate.WriteExperimentsMD(&got, sc); err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("EXPERIMENTS.md diverges from the generator at line %d:\n got: %q\nwant: %q\nregenerate with: go run ./cmd/validate -md > EXPERIMENTS.md", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("EXPERIMENTS.md length diverges: generator emits %d lines, file has %d", len(gotLines), len(wantLines))
}
