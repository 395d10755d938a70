package main

import (
	"testing"
	"time"

	"memhier/internal/server"
)

// TestClusterServesBeforeFirstProbe: once every node of the cluster set
// has finished one probe round, every peer reads healthy with no failed
// probe. A node that probed a peer before the peer's handler was in
// place would see that probe fail.
func TestClusterServesBeforeFirstProbe(t *testing.T) {
	nodes := startNodes(clusterNodes, server.Config{}, nil)
	defer stopNodes(nodes)
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		for nd.clu.Stats()["probes"].(uint64) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s finished no probe round", nd.name)
			}
			time.Sleep(time.Millisecond)
		}
		peers := nd.clu.Stats()["peers"].(map[string]any)
		for name, v := range peers {
			view := v.(map[string]any)
			if view["healthy"] != true || view["failed_probes"] != uint64(0) {
				t.Errorf("%s sees %s as %v after its first probe round, want healthy with failed_probes 0", nd.name, name, view)
			}
		}
	}
}
