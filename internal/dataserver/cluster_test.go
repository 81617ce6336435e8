package dataserver

import (
	"testing"
	"time"

	"vizq/internal/core"
	"vizq/internal/kvstore"
	"vizq/internal/sched"
)

// TestClusterCoordinationWiring pins the Data Server ↔ coordinator
// contract: two servers sharing one kvstore bus publish digests for
// their scheduler-equipped sources, see each other as peers, and drop
// the registration at Unpublish.
func TestClusterCoordinationWiring(t *testing.T) {
	backend := startBackend(t)
	bus := kvstore.NewLocalBus(kvstore.NewStore(0))
	now := time.Unix(1_723_000_000, 0)

	mk := func(node string) *Server {
		return publishFlights(t, backend, Config{
			PipelineOptions: core.DefaultOptions(),
			Scheduler:       &sched.Config{},
			Cluster:         &sched.ClusterConfig{Node: node, Bus: bus},
		})
	}
	a, b := mk("node-a"), mk("node-b")
	ca, cb := a.Coordinator(), b.Coordinator()
	if ca == nil || cb == nil {
		t.Fatal("cluster-configured servers must have coordinators")
	}
	if ca.Node() != "node-a" {
		t.Fatalf("node id = %q", ca.Node())
	}

	ca.Step(now)
	cb.Step(now)
	ca.Step(now)
	if peers := ca.Peers("faa flights"); len(peers) != 1 || peers[0].Node != "node-b" {
		t.Fatalf("node-a peers = %+v", peers)
	}
	if st := a.Scheduler("FAA Flights").Stats(); st.ClusterPeers != 1 {
		t.Fatalf("scheduler did not blend the peer: %+v", st)
	}
	if d, ok := ca.LastDigest("faa flights"); !ok || d.Source != "faa flights" {
		t.Fatalf("self digest = %+v ok=%v", d, ok)
	}

	// Unpublish unregisters: the next step publishes nothing for the
	// source, and after the staleness window node-b sees no peers.
	a.Unpublish("FAA Flights")
	if _, ok := ca.LastDigest("faa flights"); ok {
		t.Fatal("unpublished source still registered with the coordinator")
	}
	now = now.Add(time.Second)
	cb.Step(now)
	if peers := cb.Peers("faa flights"); len(peers) != 0 {
		t.Fatalf("node-b still sees unpublished peer: %+v", peers)
	}
}

// TestClusterConfigGates pins the degraded paths: no Cluster config →
// nil coordinator; an incomplete one (missing node id or bus) degrades
// to uncoordinated admission instead of failing the server.
func TestClusterConfigGates(t *testing.T) {
	backend := startBackend(t)
	plain := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	if plain.Coordinator() != nil {
		t.Fatal("coordinator without Cluster config")
	}
	broken := publishFlights(t, backend, Config{
		PipelineOptions: core.DefaultOptions(),
		Scheduler:       &sched.Config{},
		Cluster:         &sched.ClusterConfig{}, // no Node, no Bus
	})
	if broken.Coordinator() != nil {
		t.Fatal("incomplete cluster config must degrade to no coordinator")
	}
	if broken.Scheduler("FAA Flights") == nil {
		t.Fatal("local admission must survive a degraded cluster config")
	}
}
