package store

import (
	"encoding/json"
	"fmt"
	"strings"

	"memento/internal/experiments"
	"memento/internal/machine"
	"memento/internal/telemetry"
	"memento/internal/workload"
)

// sample is the wire form of one live EventSample: the run's cumulative
// cycle attribution at a trace index, streamed while the simulation is
// still going.
type sample struct {
	Stack   string            `json:"stack"`
	Index   int               `json:"index"`
	Cycles  uint64            `json:"cycles"`
	Buckets telemetry.Buckets `json:"buckets"`
}

// streamProbe forwards periodic telemetry samples from a running
// simulation into the job's event log. Probe hooks run synchronously on
// the simulation goroutine, so it only accumulates and occasionally
// appends.
type streamProbe struct {
	telemetry.Nop
	log      *eventLog
	interval int
	buckets  telemetry.Buckets
	n        int
}

func (p *streamProbe) Event(e telemetry.Event) {
	p.buckets = p.buckets.Add(e.Delta)
	p.n++
	if p.n%p.interval == 0 {
		p.log.append(EventSample, sample{
			Stack:   e.Stack.String(),
			Index:   e.Index,
			Cycles:  e.Cycles,
			Buckets: p.buckets,
		})
	}
}

// execute dispatches one job by kind and returns its result JSON. A
// context error (cancel or shutdown) surfaces as-is so runJob can mark
// the job canceled rather than failed.
func (s *Store) execute(j *Job) (json.RawMessage, error) {
	switch j.Spec.Kind {
	case KindRun:
		return s.execRun(j)
	case KindCompare:
		return s.execCompare(j)
	case KindSweep:
		return s.execSweep(j)
	case KindFleet:
		return s.execFleet(j)
	default:
		return nil, fmt.Errorf("unknown kind %q", j.Spec.Kind) // unreachable after Normalize
	}
}

// runOne simulates j's workload on one stack, streaming samples when a
// timeline interval is set.
func (s *Store) runOne(j *Job, stack machine.Stack) (telemetry.RunRecord, error) {
	if err := j.ctx.Err(); err != nil {
		return telemetry.RunRecord{}, err
	}
	prof, ok := workload.ByName(j.Spec.Workload)
	if !ok {
		return telemetry.RunRecord{}, fmt.Errorf("unknown workload %q", j.Spec.Workload)
	}
	opt := machine.Options{
		Stack:            stack,
		ColdStart:        j.Spec.ColdStart,
		MmapPopulate:     j.Spec.MmapPopulate,
		TimelineInterval: j.Spec.TimelineInterval,
	}
	if j.Spec.TimelineInterval > 0 {
		opt.Probe = &streamProbe{log: j.log, interval: j.Spec.TimelineInterval}
	}
	res, err := machine.RunWarm(s.cfg, workload.GenerateCached(prof), opt)
	if err != nil {
		return telemetry.RunRecord{}, err
	}
	return res.Record(), nil
}

func (s *Store) execRun(j *Job) (json.RawMessage, error) {
	stack := machine.Baseline
	if j.Spec.Stack == "memento" {
		stack = machine.Memento
	}
	rec, err := s.runOne(j, stack)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{"run": rec})
}

func (s *Store) execCompare(j *Job) (json.RawMessage, error) {
	base, err := s.runOne(j, machine.Baseline)
	if err != nil {
		return nil, err
	}
	mem, err := s.runOne(j, machine.Memento)
	if err != nil {
		return nil, err
	}
	speedup := 0.0
	if mem.Cycles > 0 {
		speedup = float64(base.Cycles) / float64(mem.Cycles)
	}
	return json.Marshal(map[string]any{
		"baseline": base,
		"memento":  mem,
		"speedup":  speedup,
	})
}

// experimentNote is the wire form of one EventExperiment: enough for a
// client to show sweep progress without the full table.
type experimentNote struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Rows  int    `json:"rows"`
}

func (s *Store) execSweep(j *Job) (json.RawMessage, error) {
	suite := experiments.NewSuite(s.cfg,
		experiments.WithWorkers(s.opt.SweepWorkers),
		experiments.WithProgress(func(e experiments.Experiment) {
			j.log.append(EventExperiment, experimentNote{ID: e.ID, Title: e.Title, Rows: len(e.Rows)})
		}))
	exps, err := suite.All(j.ctx)
	if err != nil {
		return nil, err
	}
	if only := j.Spec.Only; only != "" {
		kept := []experiments.Experiment{}
		for _, e := range exps {
			if strings.Contains(e.ID, only) {
				kept = append(kept, e)
			}
		}
		exps = kept
	}
	raw, err := json.Marshal(exps)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"experiments": json.RawMessage(raw),
		"count":       len(exps),
	})
}

func (s *Store) execFleet(j *Job) (json.RawMessage, error) {
	suite := experiments.NewSuite(s.cfg, experiments.WithWorkers(s.opt.SweepWorkers))
	exp, err := experiments.FleetStudy(j.ctx, suite)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{"experiment": exp})
}
