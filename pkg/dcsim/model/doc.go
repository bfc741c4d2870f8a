// Package model holds the domain contracts of the consolidation
// simulator: the types a placement policy, frequency governor, workload
// predictor, or server model must speak to plug into pkg/dcsim.
//
// It is the bottom of the dependency stack. The simulation engine and the
// pkg/dcsim façade both import this package — never the other way around —
// so a component written in a separate Go module can implement these
// interfaces and register itself through pkg/dcsim without importing
// anything unexported from this repository:
//
//	model  ←  engine (unexported implementation packages)  ←  pkg/dcsim
//	  ↑                                                          ↑
//	  └───────────── out-of-tree components ─────────────────────┘
//
// The contracts are:
//
//   - Series: a fixed-interval CPU demand trace in core-equivalents, and
//     the statistics over it (peak, percentile, reference utilization û)
//     that every policy consumes.
//   - ServerSpec and PowerModel: a homogeneous server's capacity at each
//     discrete voltage/frequency level, and its power draw as a function
//     of utilization and level.
//   - Request, Placement, and Policy: one consolidation round — predicted
//     per-VM references in, a VM-to-server assignment out.
//   - Governor: the per-server frequency decision, static at placement
//     time and optionally rescaled on a fast timer.
//   - Predictor: the per-VM next-period reference forecast.
//   - CostSource and PairCostFunc: the streaming pairwise correlation
//     costs (Eqn 1 of the paper) shared between a correlation-aware
//     policy and governor, which read its Cost alone.
//   - Workload and WorkloadSource: a serializable workload description
//     and the backend that turns it into traces — Check to validate it
//     without side effects, Load to return its Dataset.
//   - DatasetReader and VMRecord: a loaded Dataset walked one VM record
//     at a time (DatasetReaderOf), the form dcsim.OpenTraces returns.
//   - VM, Dataset, Result: the workload a run consumes and the metrics it
//     produces.
//   - RunOptions: the serializable scale knobs of the experiment drivers
//     in pkg/dcsim/experiments.
//
// Everything here depends only on the standard library, and every struct
// is plain data, so contracts can cross process boundaries as JSON — the
// seam distributed sweeps and remote workload backends build on.
package model
