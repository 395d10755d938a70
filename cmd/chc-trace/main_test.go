package main

import "testing"

func TestCheckSharingGroups(t *testing.T) {
	tests := []struct {
		cpus, perNode int
		ok            bool
	}{
		{1, 1, true},
		{64, 1, true},
		{65, 1, false}, // machine 64 would alias machine 0
		{65, 2, true},
		{128, 2, true},
		{129, 2, false},
		{4, 8, true},
		{4, 0, false},
		{4, -1, false},
	}
	for _, tc := range tests {
		err := checkSharingGroups(tc.cpus, tc.perNode)
		if (err == nil) != tc.ok {
			t.Errorf("checkSharingGroups(%d, %d) = %v, want ok=%v", tc.cpus, tc.perNode, err, tc.ok)
		}
	}
}
