package place

import (
	"math"
	"testing"
	"time"

	"repro/pkg/dcsim/model"
)

// antiPhasedPair returns two windows that peak on opposite halves.
func antiPhasedPair(n int, peak, trough float64) (*model.Series, *model.Series) {
	a := model.NewSeries(time.Second, n)
	b := model.NewSeries(time.Second, n)
	for i := 0; i < n; i++ {
		if i < n/2 {
			a.Append(peak)
			b.Append(trough)
		} else {
			a.Append(trough)
			b.Append(peak)
		}
	}
	return a, b
}

func TestJointVMPairsAntiCorrelatedVMs(t *testing.T) {
	// Two anti-phased 5-core VMs: individually they need 10 cores of
	// worst-case provision (two servers), jointly only 5.5 (one server).
	a, b := antiPhasedPair(100, 5, 0.5)
	reqs := []model.Request{
		{ID: "a", Ref: a.Max(), Window: a},
		{ID: "b", Ref: b.Max(), Window: b},
	}
	p, err := JointVM{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Assign[0] != p.Assign[1] {
		t.Fatalf("anti-correlated pair should share a server: %v", p.Assign)
	}
	if p.Active() != 1 {
		t.Fatalf("active = %d, want 1", p.Active())
	}
	// BFD, provisioning individually, needs two servers.
	bfd, err := BFD{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if bfd.Active() != 2 {
		t.Fatalf("BFD active = %d, want 2", bfd.Active())
	}
}

func TestJointVMIgnoresCorrelatedPairs(t *testing.T) {
	// Two fully synchronized VMs have no sizing gain and must not be
	// force-paired into an undersized super-VM.
	w := model.NewSeries(time.Second, 100)
	for i := 0; i < 100; i++ {
		w.Append(5.0)
	}
	reqs := []model.Request{
		{ID: "a", Ref: 5, Window: w},
		{ID: "b", Ref: 5, Window: w.Clone()},
	}
	p, err := JointVM{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Joint ref = 10 > capacity 8, and gain is zero: the VMs are placed
	// individually, 5+5 > 8 so they need two servers.
	if p.Active() != 2 {
		t.Fatalf("correlated 5+5 should use 2 servers, got %d (%v)", p.Active(), p.Assign)
	}
}

func TestJointVMWithoutWindowsDegeneratesToBFD(t *testing.T) {
	reqs := reqsFromRefs(5, 4, 3, 3)
	jv, err := JointVM{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	bfd, err := BFD{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if jv.Active() != bfd.Active() {
		t.Fatalf("window-less JointVM should match BFD server count: %d vs %d",
			jv.Active(), bfd.Active())
	}
}

func TestJointVMOddVMCount(t *testing.T) {
	a, b := antiPhasedPair(100, 4, 0.5)
	c, _ := antiPhasedPair(100, 3, 0.5)
	reqs := []model.Request{
		{ID: "a", Ref: a.Max(), Window: a},
		{ID: "b", Ref: b.Max(), Window: b},
		{ID: "c", Ref: c.Max(), Window: c},
	}
	p, err := JointVM{}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Assign) != 3 {
		t.Fatal("all VMs must be placed")
	}
}

func TestJointVMOvercommitsWhenCapped(t *testing.T) {
	reqs := reqsFromRefs(6, 6, 6, 6)
	p, err := JointVM{}.Place(reqs, spec8(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumServers != 1 {
		t.Fatalf("servers = %d, want 1", p.NumServers)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJointVMErrors(t *testing.T) {
	if _, err := (JointVM{}).Place(reqsFromRefs(1), spec8(), 0); err == nil {
		t.Fatal("maxServers=0 should error")
	}
}

func TestJointVMPercentileSizing(t *testing.T) {
	a, b := antiPhasedPair(100, 5, 0.5)
	reqs := []model.Request{
		{ID: "a", Ref: a.Percentile(0.9), Window: a},
		{ID: "b", Ref: b.Percentile(0.9), Window: b},
	}
	p, err := JointVM{Pctl: 0.9}.Place(reqs, spec8(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(float64(p.NumServers)) || p.Validate() != nil {
		t.Fatal("percentile sizing should still produce a valid placement")
	}
}
