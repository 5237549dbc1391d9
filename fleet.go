package memento

import (
	"context"

	"memento/internal/experiments"
	"memento/internal/fleet"
)

// Fleet is a configured cluster-scale simulation: invocation arrival traces
// scheduled across a pool of simulated hosts under a pluggable placement
// and keep-warm/eviction policy, with warm hits priced by the machine
// layer's snapshot cache. Build one with NewFleet and functional options,
// then Run it per stack:
//
//	f := memento.NewFleet(cfg,
//		memento.WithArrivals(memento.PoissonArrivals(1000, 5_000_000, 1)),
//		memento.WithHosts(memento.FleetHosts{Count: 4, Cores: 2, MemPages: 16384}),
//		memento.WithPolicy(memento.KeepAlivePolicy(150_000_000)),
//	)
//	r, err := f.Run(memento.Memento)
type Fleet = fleet.Fleet

// FleetOption configures a Fleet.
type FleetOption = fleet.Option

// FleetHosts sizes the simulated host pool.
type FleetHosts = fleet.Hosts

// FleetArrivals describes an invocation arrival trace.
type FleetArrivals = fleet.Arrivals

// FleetPolicy decides placement, keep-warm lifetime, and eviction victims
// for a Fleet. Implementations must be deterministic; FleetConformance
// checks one against the engine contract.
type FleetPolicy = fleet.Policy

// FleetResult is the outcome of one fleet run: latency percentiles,
// cold-start fraction, aggregate memory, and the eviction log.
type FleetResult = fleet.Result

// FleetInvocation is one invocation of an arrival trace.
type FleetInvocation = fleet.Invocation

// FleetCluster is the read-only cluster view a FleetPolicy observes.
type FleetCluster = fleet.Cluster

// FleetEviction is one warm-instance drop in the fleet's eviction log.
type FleetEviction = fleet.Eviction

// FleetInvocationDone is one completed invocation as seen by a fleet probe.
type FleetInvocationDone = fleet.InvocationDone

// NewFleet builds a cluster simulation over the machine configuration. See
// the fleet package for defaults.
func NewFleet(cfg Config, opts ...FleetOption) *Fleet { return fleet.New(cfg, opts...) }

// WithArrivals selects the fleet's invocation arrival trace (see
// PoissonArrivals, BurstyArrivals, DiurnalArrivals).
func WithArrivals(a FleetArrivals) FleetOption { return fleet.WithArrivals(a) }

// WithHosts sizes the fleet's host pool.
func WithHosts(h FleetHosts) FleetOption { return fleet.WithHosts(h) }

// WithPolicy selects the fleet's placement and keep-warm/eviction policy
// (see AlwaysColdPolicy, KeepAlivePolicy, LRUPolicy).
func WithPolicy(p FleetPolicy) FleetOption { return fleet.WithPolicy(p) }

// WithoutFleetLatencies drops the per-invocation latency vector from the
// fleet's Result (Latencies == nil; percentiles and mean are still
// computed). At million-invocation scale the vector is the run's largest
// allocation — sweeps that only read aggregates should turn it off.
func WithoutFleetLatencies() FleetOption { return fleet.WithoutLatencies() }

// FleetProbe observes fleet-level events during a run.
type FleetProbe = fleet.Probe

// WithFleetProbe attaches an observer to every completion, eviction, and
// aggregate-memory change of a fleet run (nil detaches).
func WithFleetProbe(p FleetProbe) FleetOption { return fleet.WithProbe(p) }

// PoissonArrivals is a memoryless arrival trace: n invocations, mean
// inter-arrival gap in cycles, deterministic per seed, uniform over the
// full benchmark suite.
func PoissonArrivals(n int, meanGap uint64, seed int64) FleetArrivals {
	return fleet.Poisson(n, meanGap, seed)
}

// BurstyArrivals groups arrivals into bursts (the synchronized-clients
// pattern) at the same long-run rate as PoissonArrivals.
func BurstyArrivals(n int, meanGap uint64, seed int64) FleetArrivals {
	return fleet.Bursty(n, meanGap, seed)
}

// DiurnalArrivals modulates the Poisson rate with a deterministic
// day-cycle wave (load peaks and troughs).
func DiurnalArrivals(n int, meanGap uint64, seed int64) FleetArrivals {
	return fleet.Diurnal(n, meanGap, seed)
}

// AlwaysColdPolicy never keeps instances warm: every invocation pays the
// full cold start — the no-snapshot baseline.
func AlwaysColdPolicy() FleetPolicy { return fleet.AlwaysCold() }

// KeepAlivePolicy keeps each finished instance warm for a fixed TTL in
// cycles, the fixed keep-alive window of production FaaS platforms.
func KeepAlivePolicy(ttl uint64) FleetPolicy { return fleet.KeepAlive(ttl) }

// LRUPolicy keeps every instance warm until memory pressure evicts the
// least-recently-used one.
func LRUPolicy() FleetPolicy { return fleet.LRU() }

// FleetConformance checks a custom FleetPolicy against the engine contract
// (stable name, determinism, full completion, in-range choices) on canned
// costs; mk must return a fresh policy per call.
func FleetConformance(mk func() FleetPolicy) error { return fleet.Conformance(mk) }

// FleetExperiment runs the cluster-scale study — every arrival pattern
// crossed with every shipped policy on both stacks — and returns it as a
// rendered table (the `cmd/experiments -fleet` output). It stops with
// ctx.Err() at the next (pattern x policy x stack) cell.
func FleetExperiment(ctx context.Context, s *experiments.Suite) (Experiment, error) {
	return experiments.FleetStudy(ctx, s)
}
