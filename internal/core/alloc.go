package core

import (
	"math"
	"sort"

	"repro/pkg/dcsim/model"
)

// DefaultBlock is the default bound on each server fill's candidate set
// (Config.Block). 512 is the measured sweet spot: on the paper's Setup-2
// configurations (40 VMs) any block >= n evaluates every candidate, so
// placements are identical to the exact Fig.-2 semantics, while at 1k-10k
// VMs the bound keeps per-admission work O(Block) and the whole placement
// sub-quadratic with an active-server count within ~1% of exact (see the
// README's Performance section for the recorded delta).
const DefaultBlock = 512

// Config parameterizes the correlation-aware allocator of Fig. 2.
type Config struct {
	// THCost is the initial correlation threshold: a VM joins a non-empty
	// server only when its weighted affinity cost against the residents
	// is at least THCost. Values slightly above 1 demand meaningful
	// anti-correlation; 1 accepts anything.
	THCost float64
	// Alpha in (0,1) is the relaxation factor applied to THCost whenever
	// a full pass leaves VMs unallocated (Fig. 2 line 17).
	Alpha float64
	// Block, when positive, bounds each server fill's candidate set to
	// the Block largest unallocated VMs that fit the server — the blocked
	// evaluation that turns the fill from O(n) per admission into O(Block)
	// and the whole placement sub-quadratic at 10k+ VMs. Zero evaluates
	// every unallocated VM, the paper's exact Fig.-2 semantics; Block >= n
	// is identical to exact. DefaultConfig sets DefaultBlock.
	Block int
}

// DefaultConfig matches the paper's operating point — a mildly selective
// threshold, a 10% relaxation per round — with blocked candidate
// evaluation (DefaultBlock) as the default execution strategy. At the
// paper's 40-VM scale the block covers every candidate, so results are
// exactly Fig. 2; set Block = 0 to force exact evaluation at any scale.
func DefaultConfig() Config {
	return Config{THCost: 1.15, Alpha: 0.9, Block: DefaultBlock}
}

// Allocator is the paper's correlation-aware VM placement (Fig. 2). It
// implements model.Policy so the simulator can swap it against the
// baselines.
//
// Cost scores each pair of VMs, indexed as the requests are. In a run it
// is the shared cost matrix's Cost: the simulator feeds the matrix every
// sample (the UPDATE phase of Fig. 2), so it holds samples at every
// placement — the period-0 bootstrap, then the previous period. The
// Pearson-affinity ablation (A4 in DESIGN.md) swaps in a rescaled
// Pearson correlation instead.
//
// Place works from its arguments and Cost alone, as Fig. 2 does every
// tperiod, and keeps nothing between calls.
type Allocator struct {
	Config
	Cost model.PairCostFunc
}

// Name implements model.Policy.
func (a *Allocator) Name() string { return "CorrAware" }

// EstimateServers is Eqn (3): the minimum number of servers needed to host
// the given reference utilizations at full capacity.
func EstimateServers(refs []float64, cores int) int {
	sum := 0.0
	for _, r := range refs {
		sum += r
	}
	n := int(math.Ceil(sum / float64(cores)))
	if n < 1 {
		n = 1
	}
	return n
}

// Place implements model.Policy with the two-phase algorithm of Fig. 2.
// The UPDATE phase (prediction, sorting, cost refresh, Eqn-3 server count)
// is distributed between the caller (who predicts û into Request.Ref and
// feeds the matrix) and the body below; the ALLOCATE phase is implemented
// literally: repeatedly take the server with the largest remaining
// capacity, fill it with the highest-affinity unallocated VMs above THcost,
// and relax THcost by Alpha whenever a pass strands VMs.
//
// The affinity of candidate v against a server is the weighted average
// Eqn-1 cost of v against the residents (weights: resident û shares),
// maintained incrementally: per unallocated VM the numerator
// Σ_k û_k·cost(v,k) over the server's current members is a running sum
// updated when a VM is admitted, so filling a server costs O(1) cost-fn
// calls per (candidate, admission) instead of rescanning every member for
// every candidate on every pick — the difference between O(n³) and O(n²)
// over a whole placement. (The running form divides the weighted sum once
// rather than dividing each term, which regroups the floating-point
// arithmetic; the experiment goldens pin that placements still reproduce
// the pre-rewrite results on the paper's configurations.) With Config.Block set, each fill further bounds
// its candidates to the Block largest eligible VMs (a binary search into
// the û-sorted order), which caps the per-admission work at O(Block) and
// makes the whole placement sub-quadratic.
func (a *Allocator) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	if maxServers < 1 {
		return nil, model.ErrNoServers
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cost := a.Cost
	refs := make([]float64, len(reqs))
	for i, r := range reqs {
		refs[i] = r.Ref
	}

	// Eqn 3: start with the estimated minimal active server count.
	nServers := EstimateServers(refs, spec.Cores)
	if nServers > maxServers {
		nServers = maxServers
	}
	cap := spec.Capacity()
	rem := make([]float64, nServers)
	for i := range rem {
		rem[i] = cap
	}
	members := make([][]int, nServers)

	// Unallocated VMs in decreasing û order (Fig. 2 line 6). Allocation
	// marks VMs in the index-set below instead of splicing the slice (a
	// linear scan per removal made removals alone O(n²) at 1k+ VMs);
	// scans skip marked entries, and the slice is compacted — order
	// preserved, so placements are byte-identical — once half is dead.
	unalloc := make([]int, len(reqs))
	for i := range unalloc {
		unalloc[i] = i
	}
	sort.SliceStable(unalloc, func(x, y int) bool { return refs[unalloc[x]] > refs[unalloc[y]] })

	allocated := make([]bool, len(reqs))
	nUnalloc := len(reqs)
	remove := func(v int) {
		allocated[v] = true
		nUnalloc--
		if nUnalloc*2 < len(unalloc) {
			keep := unalloc[:0]
			for _, u := range unalloc {
				if !allocated[u] {
					keep = append(keep, u)
				}
			}
			unalloc = keep
		}
	}

	// Incremental affinity state for the server currently being filled:
	// affNum[i] = Σ_{k ∈ members} û_k·cost(cand[i],k) and affDen = Σ û_k,
	// so affinity(cand[i]) = affNum[i]/affDen. Admitting a member extends
	// every candidate's running sum by one term instead of recomputing the
	// whole inner product.
	affNum := make([]float64, len(reqs))
	cand := make([]int, 0, len(reqs))

	th := a.THCost
	alpha := a.Alpha
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.9
	}
	// Servers in decreasing remaining-capacity order (lines 10, 18),
	// re-sorted every relaxation round into one slice, which grows only
	// when a round opened a server.
	order := make([]int, 0, len(rem))
	for nUnalloc > 0 {
		progress := false
		order = order[:0]
		for i := range rem {
			order = append(order, i)
		}
		sort.SliceStable(order, func(x, y int) bool { return rem[order[x]] > rem[order[y]] })

		for _, s := range order {
			// The fill's candidates are the (at most Block) largest
			// unallocated VMs that fit the server's remaining capacity
			// now. unalloc is sorted by decreasing û, so they form a
			// suffix found by binary search; VMs above the cut can never
			// fit later either (rem only shrinks during a fill). With
			// Block <= 0 the candidate set is every fitting VM and the
			// fill is exactly Fig. 2.
			lo := sort.Search(len(unalloc), func(i int) bool {
				return refs[unalloc[i]] <= rem[s]+1e-12
			})
			cand = cand[:0]
			for i := lo; i < len(unalloc); i++ {
				if a.Block > 0 && len(cand) == a.Block {
					break
				}
				if v := unalloc[i]; !allocated[v] {
					cand = append(cand, v)
				}
			}
			if len(cand) == 0 {
				continue
			}
			// Seed the running affinity sums with the server's current
			// members (non-empty when revisiting a server after a
			// threshold relaxation round).
			affDen := 0.0
			for _, k := range members[s] {
				affDen += refs[k]
			}
			for i, v := range cand {
				sum := 0.0
				for _, k := range members[s] {
					sum += refs[k] * cost(v, k)
				}
				affNum[i] = sum
			}
			// Fill this server while eligible VMs remain (lines 11-16).
			for {
				best, bestScore := -1, math.Inf(-1)
				for i, v := range cand {
					if allocated[v] {
						continue
					}
					if refs[v] > rem[s]+1e-12 {
						continue
					}
					// An empty server — or members with no measured
					// demand — imposes no correlation constraint.
					score := math.Inf(1)
					if affDen > 1e-12 {
						score = affNum[i] / affDen
					}
					if score < th {
						continue
					}
					if score > bestScore {
						best, bestScore = i, score
					}
				}
				if best == -1 {
					break
				}
				v := cand[best]
				members[s] = append(members[s], v)
				rem[s] -= refs[v]
				remove(v)
				// Extend the running sums by the admitted member.
				affDen += refs[v]
				for i, c := range cand {
					if !allocated[c] {
						affNum[i] += refs[v] * cost(c, v)
					}
				}
				progress = true
			}
		}
		if nUnalloc == 0 {
			break
		}
		if !progress && th < 1e-3 {
			// The threshold is fully relaxed and still nothing fits:
			// this is a pure capacity shortfall. Open another server
			// when allowed, otherwise overcommit the roomiest one.
			v := -1
			for _, u := range unalloc {
				if !allocated[u] {
					v = u
					break
				}
			}
			if len(rem) < maxServers {
				rem = append(rem, cap-refs[v])
				members = append(members, []int{v})
			} else {
				s := 0
				for i := range rem {
					if rem[i] > rem[s] {
						s = i
					}
				}
				members[s] = append(members[s], v)
				rem[s] -= refs[v]
			}
			remove(v)
			continue
		}
		// Fig. 2 line 17: degenerate the threshold and retry.
		th *= alpha
		if th < 1e-3 {
			th = 0
		}
	}
	assign := make([]int, len(reqs))
	for s, ms := range members {
		for _, v := range ms {
			assign[v] = s
		}
	}
	return &model.Placement{NumServers: len(rem), Assign: assign}, nil
}
