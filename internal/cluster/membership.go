// Package cluster is the distributed serving tier: a coordinator/router
// process that tracks molqd replicas via periodic heartbeats, routes the v1
// surface by engine name and spatial shard, and extends the engine's COW
// snapshot model across the wire — prepared MOVDs are cut along the strip
// boundaries of the parallel sweep, shipped to replicas as version-stamped
// internal/store binary snapshots, and kept current with splice deltas
// keyed by snapshot version (stale replicas fall back to a full snapshot
// refetch).
//
// Topology: one router (Router, `molqd -router`) and N replicas (each a
// stock molqd serving the v1 API plus the /cluster/v1 shard surface of
// Replica). Replicas push heartbeats to the router (Agent); the router
// never polls. Every shard is replicated to every live node — the fleet
// exists for query throughput and survival, not capacity sharding — so any
// single replica death leaves full coverage and the router just reroutes.
//
// Correctness of scatter-gather: a query's optimum is the minimum over
// combination optima, and each combination's Fermat-Weber solve is
// independent of every other (the paper's WGD(c,p) ≥ MWGD(p) bound only
// prunes losers early). Cutting the MOVD into strips partitions the
// combinations (with harmless boundary duplicates); the router min-reduces
// the per-shard winners, so the cluster answer is bit-equal to the
// single-node answer.
package cluster

import (
	"sort"
	"sync"
	"time"
)

// NodeStatus is one replica's latest heartbeat content.
type NodeStatus struct {
	// ID is the replica's stable identity (molqd -node-id).
	ID string `json:"id"`
	// Addr is the replica's advertised base URL (scheme://host:port).
	Addr string `json:"addr"`
	// Engines maps engine name → engine version on the replica's v1
	// surface (prepared engines it serves directly).
	Engines map[string]int64 `json:"engines,omitempty"`
	// Shards lists the cluster shards the replica has installed.
	Shards []ShardState `json:"shards,omitempty"`
	// Load is a coarse load signal (in-flight requests); the router prefers
	// lighter nodes when proxying whole requests.
	Load int `json:"load"`
}

// ShardState identifies one installed shard and its snapshot version.
type ShardState struct {
	Engine  string `json:"engine"`
	Shard   int    `json:"shard"`
	Version int64  `json:"version"`
}

// Node is the router's view of one replica.
type Node struct {
	NodeStatus
	// LastSeen is when the latest heartbeat arrived.
	LastSeen time.Time
	// Joined is when the node was first seen (or re-seen after expiry).
	Joined time.Time
}

// Membership tracks replicas by heartbeat recency. All methods are safe for
// concurrent use.
type Membership struct {
	mu      sync.RWMutex
	nodes   map[string]*Node
	timeout time.Duration
	now     func() time.Time // injectable for tests
}

// NewMembership returns a membership table that declares a node dead when
// its last heartbeat is older than timeout.
func NewMembership(timeout time.Duration) *Membership {
	return &Membership{
		nodes:   make(map[string]*Node),
		timeout: timeout,
		now:     time.Now,
	}
}

// Update records a heartbeat, returning true when the node is new (first
// heartbeat, or first after the node expired and was removed).
func (m *Membership) Update(st NodeStatus) bool {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[st.ID]
	if !ok {
		n = &Node{Joined: now}
		m.nodes[st.ID] = n
	}
	n.NodeStatus = st
	n.LastSeen = now
	return !ok
}

// Remove drops a node (explicit shutdown or a router-observed hard failure,
// which beats waiting out the heartbeat window).
func (m *Membership) Remove(id string) {
	m.mu.Lock()
	delete(m.nodes, id)
	m.mu.Unlock()
}

// Live returns the nodes inside the liveness window, sorted by ID so
// shard-owner selection is deterministic. Expired nodes are pruned as a
// side effect.
func (m *Membership) Live() []*Node {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Node, 0, len(m.nodes))
	for id, n := range m.nodes {
		if now.Sub(n.LastSeen) > m.timeout {
			delete(m.nodes, id)
			continue
		}
		cp := *n
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns a copy of one node's state (nil when unknown or expired).
func (m *Membership) Get(id string) *Node {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.nodes[id]
	if !ok || m.now().Sub(n.LastSeen) > m.timeout {
		return nil
	}
	cp := *n
	return &cp
}

// Ages returns every tracked node's heartbeat age, including nodes past the
// timeout (the heartbeat-age gauge should show a node going stale, not hide
// it).
func (m *Membership) Ages() map[string]time.Duration {
	now := m.now()
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]time.Duration, len(m.nodes))
	for id, n := range m.nodes {
		out[id] = now.Sub(n.LastSeen)
	}
	return out
}
