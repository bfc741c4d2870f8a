package backoff

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The delay sequences below were produced by the two retry policies this
// package replaced: the sweep executor's, keyed (cell, replica), and the
// object-store fetcher's, keyed by the object URL's FNV-1a hash. Each row
// is attempts 0..8 in nanoseconds. A change to any of them changes retry
// timing somewhere.
var fast = Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}

var cellReplicaDelays = []struct {
	policy        Policy
	cell, replica uint64
	want          [9]int64
}{
	{Policy{Seed: 0}, 0, 0, [9]int64{35592933, 52555140, 145771751, 278182342, 549786913, 1582197504, 1084965731, 1117376322, 1341756589}},
	{Policy{Seed: 0}, 3, 1, [9]int64{34211463, 91622054, 174032645, 306443236, 738853827, 1480816034, 1913226625, 1945637216, 1040375119}},
	{Policy{Seed: 0}, 17, 4, [9]int64{42443024, 85032433, 102621842, 270211251, 637800660, 1205390069, 1972979478, 1940568887, 1198606680}},
	{Policy{Seed: 7}, 0, 0, [9]int64{35803618, 68841411, 125624800, 293214209, 421609638, 1389199047, 1886430820, 1854020229, 1691967274}},
	{Policy{Seed: 7}, 3, 1, [9]int64{37185088, 79774497, 197363906, 264953315, 522991108, 1490580517, 1058169926, 1025759335, 1993348744}},
	{Policy{Seed: 7}, 17, 4, [9]int64{40302103, 72712694, 155123285, 287533876, 519944467, 1152355058, 1584765649, 1326727856, 1421465759}},
	{Policy{Seed: -3}, 0, 0, [9]int64{43142751, 50553342, 192515549, 224926140, 457336731, 1489747322, 1322157913, 1354568504, 1386979095}},
	{Policy{Seed: -3}, 3, 1, [9]int64{49997949, 66960156, 160176767, 292587358, 764191929, 1396602520, 1499370747, 1531781338, 1693834293}},
	{Policy{Seed: -3}, 17, 4, [9]int64{38644266, 56233675, 153465448, 321054857, 759001902, 926591311, 1623823084, 1591412493, 1657480610}},
	{fast, 0, 0, [9]int64{5592933, 12555140, 25771751, 78182342, 69786913, 62197504, 44965731, 77376322, 61756589}},
	{fast, 3, 1, [9]int64{9211463, 11622054, 34032645, 66443236, 58853827, 40816034, 73226625, 65637216, 40375119}},
	{fast, 17, 4, [9]int64{7443024, 15032433, 22621842, 70211251, 77800660, 45390069, 52979478, 60568887, 78606680}},
	{withSeed(fast, 7), 0, 0, [9]int64{5803618, 18841411, 25624800, 53214209, 61609638, 69199047, 46430820, 54020229, 51967274}},
	{withSeed(fast, 7), 3, 1, [9]int64{7185088, 19774497, 37363906, 64953315, 42991108, 50580517, 58169926, 65759335, 73348744}},
	{withSeed(fast, 7), 17, 4, [9]int64{5302103, 12712694, 35123285, 47533876, 79944467, 72355058, 64765649, 46727856, 61465759}},
	{withSeed(fast, -3), 0, 0, [9]int64{8142751, 10553342, 32515549, 64926140, 57336731, 49747322, 42157913, 74568504, 66979095}},
	{withSeed(fast, -3), 3, 1, [9]int64{9997949, 16960156, 20176767, 52587358, 44191929, 76602520, 59370747, 51781338, 53834293}},
	{withSeed(fast, -3), 17, 4, [9]int64{8644266, 16233675, 33465448, 41054857, 79001902, 46591311, 63823084, 71412493, 57480610}},
}

const objectURL = "http://127.0.0.1:9000/day1/traces-000.csv"

var objectDelays = []struct {
	policy Policy
	object string
	want   [9]int64
}{
	{Policy{Seed: 0}, "obj", [9]int64{44587479, 51998070, 134408661, 276370868, 508781459, 1541192050, 1773602641, 1806013232, 1900751135}},
	{Policy{Seed: 0}, "", [9]int64{27198636, 94788045, 162377454, 229966863, 766392616, 1224430409, 1992019818, 1959609227, 1896034980}},
	{Policy{Seed: 0}, objectURL, [9]int64{28062513, 85473104, 138241331, 370651922, 673420149, 905830740, 1099047351, 1131457942, 1034226169}},
	{Policy{Seed: 7}, "obj", [9]int64{39806332, 97844125, 115433534, 283022943, 619448696, 1187038105, 1554627514, 1522216923, 1749091060}},
	{Policy{Seed: 7}, "", [9]int64{28029811, 85440402, 167850993, 200261584, 663835831, 1005798038, 1438208629, 1470619220, 1534193467}},
	{Policy{Seed: 7}, objectURL, [9]int64{33624994, 76214403, 182997792, 341035585, 578982630, 1546572039, 1443803812, 1411393221, 1539788650}},
	{Policy{Seed: -3}, "obj", [9]int64{30813329, 63223920, 165992147, 398402738, 701170965, 933581556, 1126798167, 1868760374, 1061976985}},
	{Policy{Seed: -3}, "", [9]int64{28582686, 71172095, 127955484, 395544893, 692776666, 1260366075, 1357597848, 1325187257, 1422419030}},
	{Policy{Seed: -3}, objectURL, [9]int64{43318051, 50728642, 133139233, 265549824, 529124071, 1561534662, 1193945253, 1226355844, 1999481707}},
	{fast, "obj", [9]int64{9587479, 11998070, 34408661, 76370868, 68781459, 61192050, 53602641, 46013232, 60751135}},
	{fast, "", [9]int64{7198636, 14788045, 22377454, 69966863, 46392616, 64430409, 72019818, 79609227, 56034980}},
	{fast, objectURL, [9]int64{8062513, 15473104, 38241331, 50651922, 73420149, 65830740, 59047351, 51457942, 74226169}},
	{withSeed(fast, 7), "obj", [9]int64{9806332, 17844125, 35433534, 43022943, 59448696, 67038105, 74627514, 42216923, 69091060}},
	{withSeed(fast, 7), "", [9]int64{8029811, 15440402, 27850993, 40261584, 63835831, 45798038, 78208629, 70619220, 54193467}},
	{withSeed(fast, 7), objectURL, [9]int64{8624994, 16214403, 22997792, 61035585, 58982630, 66572039, 43803812, 51393221, 59788650}},
	{withSeed(fast, -3), "obj", [9]int64{5813329, 13223920, 25992147, 78402738, 61170965, 53581556, 46798167, 68760374, 61976985}},
	{withSeed(fast, -3), "", [9]int64{8582686, 11172095, 27955484, 75544893, 52776666, 60366075, 77597848, 45187257, 62419030}},
	{withSeed(fast, -3), objectURL, [9]int64{8318051, 10728642, 33139233, 65549824, 49124071, 41534662, 73945253, 66355844, 79481707}},
}

func withSeed(p Policy, seed int64) Policy {
	p.Seed = seed
	return p
}

// TestDelayPinned replays both key shapes against the captured sequences:
// the merge of the two retry policies moved no retry timing.
func TestDelayPinned(t *testing.T) {
	for _, c := range cellReplicaDelays {
		for attempt, want := range c.want {
			if got := c.policy.Delay(attempt, c.cell, c.replica); got != time.Duration(want) {
				t.Errorf("%+v Delay(%d, cell %d, replica %d) = %d, want %d",
					c.policy, attempt, c.cell, c.replica, got, want)
			}
		}
	}
	for _, c := range objectDelays {
		for attempt, want := range c.want {
			if got := c.policy.Delay(attempt, Key(c.object)); got != time.Duration(want) {
				t.Errorf("%+v Delay(%d, Key(%q)) = %d, want %d", c.policy, attempt, c.object, got, want)
			}
		}
	}
}

// TestHintedCapsAtMax: a peer's hint wins over a shorter backoff but never
// exceeds Max, and a hint below the backoff is ignored.
func TestHintedCapsAtMax(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	if d, b := p.Hinted(0, 0, 1), p.Delay(0, 1); d != b {
		t.Fatalf("no hint: Hinted = %v, want the backoff %v", d, b)
	}
	if d := p.Hinted(50*time.Millisecond, 0, 1); d != 50*time.Millisecond {
		t.Fatalf("50ms hint = %v, want the hint", d)
	}
	if d := p.Hinted(time.Hour, 0, 1); d != p.Max {
		t.Fatalf("1h hint = %v, want the %v cap", d, p.Max)
	}
	if d := (Policy{}).Hinted(time.Hour, 0); d != 2*time.Second {
		t.Fatalf("zero policy, 1h hint = %v, want the 2s default cap", d)
	}
}

// TestSleep: a completed wait returns nil; an ended context returns its
// error, at once for a non-positive duration.
func TestSleep(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleep = %v", err)
	}
	if err := Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled zero sleep = %v", err)
	}
}
