package experiment

import (
	"os"
	"testing"
)

// hierGolden is the blessed seed-2005 rendering of the two hierarchy
// studies (transit–stub and N-level) at the smrp-sim default of 10 runs.
// Both run on hierarchy.NLevelSession; any change to its Join, recovery or
// delay accounting that moves a number shows up here as a diff.
const hierGolden = "testdata/hier_golden.txt"

// renderHierStudies runs both hierarchy studies at seed 2005 and
// concatenates their rendered reports.
func renderHierStudies(t *testing.T) string {
	t.Helper()
	hi, err := RunHierarchy(10, 2005)
	if err != nil {
		t.Fatalf("hierarchy: %v", err)
	}
	nl, err := RunNLevel(10, 2005)
	if err != nil {
		t.Fatalf("nlevel: %v", err)
	}
	return hi.Render() + nl.Render()
}

// TestHierarchyStudiesGolden diffs the rendered hierarchy studies against
// the blessed file at one and four workers. To re-bless after an intended
// change of output:
//
//	SMRP_UPDATE_GOLDEN=1 go test -run TestHierarchyStudiesGolden ./internal/experiment
func TestHierarchyStudiesGolden(t *testing.T) {
	defer SetParallelism(0)
	if os.Getenv("SMRP_UPDATE_GOLDEN") != "" {
		SetParallelism(1)
		if err := os.WriteFile(hierGolden, []byte(renderHierStudies(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(hierGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		if got := renderHierStudies(t); got != string(want) {
			t.Errorf("workers=%d: output diverges from %s\n--- got\n%s--- want\n%s", workers, hierGolden, got, want)
		}
	}
}
