package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"gals/internal/core"
	"gals/internal/experiment"
	"gals/internal/workload"
)

// goldens are the program's outputs on the benchmark's inputs, computed at
// the commit that introduced the benchmark (galsbench --write-goldens). A
// later change that alters one is a change to simulated results, not a
// speed-up, and every op it touches counts as failed.
type goldens struct {
	// Phase maps a suite benchmark to its simWindow Phase-Adaptive run.
	Phase map[string]phaseGolden `json:"phase"`
	// Suite maps a pipeline seed (decimal) to the window-suiteWindow
	// Figure-6 pipeline's outputs.
	Suite map[string]suiteGolden `json:"suite"`
}

type phaseGolden struct {
	TimeFS       int64 `json:"time_fs"`
	Instructions int64 `json:"instructions"`
	Reconfigs    int64 `json:"reconfigs"`
}

type suiteGolden struct {
	MeanProg  float64 `json:"mean_prog"`
	MeanPhase float64 `json:"mean_phase"`
	BestSync  string  `json:"best_sync"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if len(g.Phase) != len(workload.Suite()) || len(g.Suite) != suiteSeeds {
		return nil, fmt.Errorf("golden.json: %d phase and %d suite entries, want %d and %d",
			len(g.Phase), len(g.Suite), len(workload.Suite()), suiteSeeds)
	}
	return &g, nil
}

func phaseOf(r *core.Result) phaseGolden {
	return phaseGolden{TimeFS: int64(r.TimeFS), Instructions: r.Stats.Instructions, Reconfigs: r.Stats.Reconfigs}
}

func suiteOf(r *experiment.SuiteResult) suiteGolden {
	return suiteGolden{MeanProg: r.MeanProg, MeanPhase: r.MeanPhase, BestSync: r.BestSync.Label()}
}

// writeGoldens computes every golden from live generation (no recording
// store, no cache) and writes them to path.
func writeGoldens(path string) error {
	g := goldens{Phase: map[string]phaseGolden{}, Suite: map[string]suiteGolden{}}
	for _, s := range workload.Suite() {
		g.Phase[s.Name] = phaseOf(core.RunWorkload(s, phaseConfig(), simWindow))
	}
	for i := 0; i < suiteSeeds; i++ {
		seed := suiteSeedBase + int64(i)
		experiment.ResetSuiteMemo()
		r, err := experiment.RunSuite(suiteOptions(seed))
		if err != nil {
			return err
		}
		g.Suite[strconv.FormatInt(seed, 10)] = suiteOf(r)
	}
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
