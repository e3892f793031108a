package main

import (
	"fmt"

	"repro/internal/amp"
	"repro/internal/rt"
)

// platformFile is the benchmark's two-core platform: one Cortex-A15 and one
// Cortex-A7 cluster with Platform A's core types and overheads, so that the
// two workers a 2-CPU host can run span both core types.
const platformFile = "perfbench/platform-1b1s.json"

// nWorkers is the fleet size: one worker per core of the platform, and no
// more than the host's CPUs.
const nWorkers = 2

// loadPlatform loads the platform file and checks that it still emulates
// asymmetry: under BS binding worker 0 sits on the big core and worker 1
// must be slowed down, for every kernel profile the benchmark uses.
func loadPlatform() (*amp.Platform, error) {
	pl, err := amp.LoadFile(platformFile)
	if err != nil {
		return nil, err
	}
	if pl.NumCores() != nWorkers {
		return nil, fmt.Errorf("%s: %d cores, want %d", platformFile, pl.NumCores(), nWorkers)
	}
	for _, prof := range appProfiles() {
		team, err := rt.NewTeam(rt.TeamConfig{Platform: pl, NThreads: nWorkers, Binding: amp.BindBS, Profile: prof})
		if err != nil {
			return nil, err
		}
		if s0, s1 := team.Slowdown(0), team.Slowdown(1); s0 != 1 || !(s1 > 1) {
			return nil, fmt.Errorf("%s: worker slowdowns %.3f/%.3f for profile %+v, want 1 and >1 (no asymmetry emulated)",
				platformFile, s0, s1, prof)
		}
	}
	return pl, nil
}
