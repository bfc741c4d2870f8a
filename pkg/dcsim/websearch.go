package dcsim

import (
	"repro/internal/reg"
	"repro/internal/websearch"
	"repro/pkg/dcsim/model"
)

// WebSearchScenario describes one Setup-1 web-search testbed run: two
// CloudSuite-style search clusters whose ISN-to-server placement and server
// frequency are the experiment's variables.
type WebSearchScenario struct {
	// Placement is the placement registry name (see WebSearchPlacements).
	Placement string `json:"placement"`
	// Speed is the relative server frequency f/fmax.
	Speed float64 `json:"speed"`
	// Duration is the simulated span in seconds.
	Duration float64 `json:"duration"`
	// Seed drives query arrivals and per-query work. Seed 0 selects the
	// testbed's default seed 1 (the zero value means "unset", as in
	// Workload.Seed).
	Seed int64 `json:"seed"`
}

// WebSearchResult is the testbed's result plus the run's identifying
// labels, so callers need no other package to render it.
type WebSearchResult struct {
	*model.WebSearchRun
	// PlacementName is the placement's descriptive name.
	PlacementName string
	// ISNNames labels WebSearchRun.VMUtil, in order.
	ISNNames []string
}

// WebSearchPlacementFactory builds a placement at a relative speed.
type WebSearchPlacementFactory func(speed float64) *model.WebSearchPlacement

var webSearchReg = reg.New[WebSearchPlacementFactory]("dcsim", "web-search placement")

// RegisterWebSearchPlacement adds a web-search placement under a unique name.
func RegisterWebSearchPlacement(name string, f WebSearchPlacementFactory) {
	webSearchReg.Register(name, f)
}

// WebSearchPlacements lists the registered placement names, sorted.
func WebSearchPlacements() []string { return webSearchReg.Names() }

func init() {
	RegisterWebSearchPlacement("segregated", websearch.Segregated)
	RegisterWebSearchPlacement("shared-uncorr", websearch.SharedUnCorr)
	RegisterWebSearchPlacement("shared-corr", websearch.SharedCorr)
}

// RunWebSearch executes one web-search testbed run with the placement
// resolved by registry name.
func RunWebSearch(ws WebSearchScenario) (*WebSearchResult, error) {
	if ws.Placement == "" {
		ws.Placement = "shared-corr"
	}
	if ws.Speed == 0 {
		ws.Speed = 1
	}
	factory, err := webSearchReg.Lookup(ws.Placement)
	if err != nil {
		return nil, err
	}
	cfg := websearch.DefaultConfig()
	if ws.Duration > 0 {
		cfg.Duration = ws.Duration
	}
	if ws.Seed != 0 {
		cfg.Seed = ws.Seed
	}
	pl := factory(ws.Speed)
	res, err := websearch.Run(cfg, pl)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cfg.ISNs))
	for i, isn := range cfg.ISNs {
		names[i] = isn.Name
	}
	return &WebSearchResult{WebSearchRun: res, PlacementName: pl.Name, ISNNames: names}, nil
}
