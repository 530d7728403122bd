package energy

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCapacitorBasics(t *testing.T) {
	c := NewCapacitor(470e-9, 3.5, 3.5)
	wantE := 0.5 * 470e-9 * 3.5 * 3.5
	if math.Abs(c.Energy()-wantE) > 1e-12 {
		t.Errorf("energy = %g", c.Energy())
	}
	c.Draw(1e-6)
	if c.V() >= 3.5 {
		t.Error("draw did not lower voltage")
	}
	c.Add(1e-6)
	if math.Abs(c.V()-3.5) > 1e-9 {
		t.Errorf("recharge: %f", c.V())
	}
}

func TestCapacitorClampsAtVmax(t *testing.T) {
	c := NewCapacitor(470e-9, 3.5, 3.5)
	absorbed := c.Add(1)
	if c.V() > 3.5 {
		t.Error("exceeded Vmax")
	}
	if absorbed > 1e-12 {
		t.Errorf("absorbed %g at full charge", absorbed)
	}
}

func TestCapacitorFloorsAtZero(t *testing.T) {
	c := NewCapacitor(470e-9, 3.5, 3.0)
	c.Draw(1) // far more than stored
	if c.V() != 0 {
		t.Errorf("voltage %f after overdraw", c.V())
	}
}

func TestEnergyAt(t *testing.T) {
	c := NewCapacitor(470e-9, 3.5, 2.8)
	usable := c.EnergyAt(3.5) - c.EnergyAt(2.8)
	want := 0.5 * 470e-9 * (3.5*3.5 - 2.8*2.8)
	if math.Abs(usable-want) > 1e-12 {
		t.Errorf("usable %g want %g", usable, want)
	}
}

// TestAddDrawInverse: add then draw of the same amount restores the
// voltage (when not clamped).
func TestAddDrawInverse(t *testing.T) {
	if err := quick.Check(func(mj uint16) bool {
		c := NewCapacitor(470e-9, 3.5, 2.0)
		j := float64(mj) * 1e-12
		v0 := c.V()
		c.Add(j)
		c.Draw(j)
		return math.Abs(c.V()-v0) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLedgerTotal(t *testing.T) {
	l := Ledger{Compute: 1, NVM: 2, Persist: 3, Backup: 4, Restore: 5, Sleep: 6}
	if l.Total() != 21 {
		t.Errorf("total = %f", l.Total())
	}
}

// TestLedgerNonComputeCoversEveryField sets one field at a time: Total
// must see each, and NonCompute each but Compute, so a field added to
// the ledger and left out of either sum fails here.
func TestLedgerNonComputeCoversEveryField(t *testing.T) {
	ty := reflect.TypeOf(Ledger{})
	for i := 0; i < ty.NumField(); i++ {
		var l Ledger
		reflect.ValueOf(&l).Elem().Field(i).SetFloat(1)
		want := 1.0
		if ty.Field(i).Name == "Compute" {
			want = 0
		}
		if l.Total() != 1 || l.NonCompute() != want {
			t.Errorf("%s = 1: Total %v, NonCompute %v; want 1, %v", ty.Field(i).Name, l.Total(), l.NonCompute(), want)
		}
	}
}
