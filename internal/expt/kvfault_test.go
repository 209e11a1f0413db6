package expt

import "testing"

// Every kill in the kvfault sweep must drive a fail-over: a kill count that
// promotes no backup would leave the recovery figures measuring nothing.
func TestKVFaultPromotesOnKill(t *testing.T) {
	for _, kills := range []int{1, 2} {
		if r := kvfaultPoint(7, kills); r.promotions == 0 {
			t.Errorf("kills=%d: no promotions; fault matrix not exercised (%+v)", kills, r)
		}
	}
}
