package sim

import (
	"fmt"

	"repro/internal/amp"
)

// Phase is one element of a program: either a parallel loop (possibly
// repeated, as time-stepped solvers repeat their loop nests) or a serial
// section executed by the master thread (§2 lists serial phases between
// parallel loops as the other main scalability limiter).
type Phase struct {
	// Loop, when non-nil, makes this a parallel-loop phase.
	Loop *LoopSpec
	// Reps is the loop repetition count; 0 means 1.
	Reps int
	// SerialUnits, for serial phases, is the work executed by the master.
	SerialUnits float64
	// SerialProfile is the serial code's instruction mix.
	SerialProfile amp.Profile
}

// Validate checks the phase.
func (p Phase) Validate() error {
	switch {
	case p.Loop != nil && p.SerialUnits > 0:
		return fmt.Errorf("sim: phase has both a loop and serial work")
	case p.Loop != nil:
		if p.Reps < 0 {
			return fmt.Errorf("sim: loop %q has negative rep count %d", p.Loop.Name, p.Reps)
		}
		return p.Loop.Validate()
	case p.SerialUnits > 0:
		return p.SerialProfile.Validate()
	default:
		return fmt.Errorf("sim: phase is neither a loop nor serial work")
	}
}

// Program is a modeled OpenMP application: an ordered list of phases.
type Program struct {
	Name   string
	Phases []Phase
}

// Validate checks the program.
func (pr Program) Validate() error {
	if len(pr.Phases) == 0 {
		return fmt.Errorf("sim: program %q has no phases", pr.Name)
	}
	for i, ph := range pr.Phases {
		if err := ph.Validate(); err != nil {
			return fmt.Errorf("sim: program %q phase %d: %w", pr.Name, i, err)
		}
	}
	return nil
}

// Loops returns the program's loop specs in order, expanding repetitions
// into a single entry each (repetition does not change a loop's identity).
func (pr Program) Loops() []LoopSpec {
	var out []LoopSpec
	for _, ph := range pr.Phases {
		if ph.Loop != nil {
			out = append(out, *ph.Loop)
		}
	}
	return out
}

// ProgramResult aggregates one simulated program execution.
type ProgramResult struct {
	// TotalNs is the virtual completion time.
	TotalNs int64
	// SerialNs is time spent in serial phases (master thread).
	SerialNs int64
	// SchedNs is total runtime-system time summed over threads.
	SchedNs int64
	// PoolAccesses counts shared-pool operations over the whole run.
	PoolAccesses int64
	// LoopNs is the wall time spent inside parallel loops.
	LoopNs int64
}

// RunProgram simulates the program under cfg and returns its result.
func RunProgram(cfg Config, prog Program) (ProgramResult, error) {
	if err := cfg.Validate(); err != nil {
		return ProgramResult{}, err
	}
	if err := prog.Validate(); err != nil {
		return ProgramResult{}, err
	}
	pl := cfg.Platform
	masterCore := pl.CoreOf(0, cfg.NThreads, cfg.Binding)
	var res ProgramResult
	cursor := int64(0)
	for _, ph := range prog.Phases {
		if ph.Loop == nil {
			// Serial phase: the master thread alone, no cluster contention.
			speed := pl.Speed(masterCore, ph.SerialProfile, 1)
			dur := int64(ph.SerialUnits / speed)
			cursor += dur
			res.SerialNs += dur
			continue
		}
		reps := ph.Reps
		if reps == 0 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			lr, err := RunLoop(cfg, *ph.Loop, cursor)
			if err != nil {
				return ProgramResult{}, err
			}
			res.LoopNs += lr.End - lr.Start
			res.SchedNs += lr.SchedNs
			res.PoolAccesses += lr.PoolAccesses
			cursor = lr.End
		}
	}
	res.TotalNs = cursor
	return res, nil
}
