package timeslot

import "testing"

func TestClearRingWraps(t *testing.T) {
	for start := 0; start < 5; start++ {
		for n := 0; n <= 5; n++ {
			ring := []int{1, 1, 1, 1, 1}
			ClearRing(ring, start, n)
			for i, v := range ring {
				cleared := (i-start+5)%5 < n
				if (v == 0) != cleared {
					t.Fatalf("ClearRing(start %d, n %d) left %v", start, n, ring)
				}
			}
		}
	}
}
