package fix

import "testing"

func TestSize(t *testing.T) {
	if (Probe{}).Size() != 1 {
		t.Fatal("Probe.Size")
	}
}
