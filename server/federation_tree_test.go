package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"

	streamagg "repro"
	"repro/federation"
	"repro/internal/workload"
)

// fedNode is one in-process server of a federation tree. Its URL
// outlives restarts, as a restarted process comes back at its address,
// and its pusher ships the whole state to the parent (nil at the top).
type fedNode struct {
	id     string
	url    string
	depth  int
	parent *fedNode
	srv    atomic.Pointer[Server]
	pusher *federation.Pusher
}

func newFedNode(t *testing.T, parent *fedNode, id string) *fedNode {
	t.Helper()
	n := &fedNode{id: id, parent: parent}
	if parent != nil {
		n.depth = parent.depth + 1
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.srv.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	n.url = hs.URL
	n.start(t, 1)
	return n
}

// start (re)starts the node: a new Server over a fresh fedTestPipeline
// (opts go to New), pushing under a new epoch.
func (n *fedNode) start(t *testing.T, epoch uint64, opts ...streamagg.Option) {
	t.Helper()
	srv, err := New(fedTestPipeline(t, 0), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	n.srv.Store(srv)
	if n.parent == nil {
		return
	}
	n.pusher, err = federation.NewPusher(federation.PusherConfig{
		URL:    n.parent.url + "/v1/merge",
		Node:   n.id,
		Source: srv,
		Epoch:  epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (n *fedNode) ingest(t *testing.T, items []uint64) {
	t.Helper()
	feedServer(t, n.srv.Load(), items)
}

func (n *fedNode) push(t *testing.T) {
	t.Helper()
	if err := n.pusher.Push(context.Background()); err != nil {
		t.Fatalf("%s pushing to %s: %v", n.id, n.parent.id, err)
	}
}

// linearBytes returns the checkpoints of p's linear members merged into
// an empty pipeline: the merge keeps the empty side's rolling histogram
// salt, which depends on how a stream was batched and not on the
// stream, so equal bytes mean equal cells.
func linearBytes(t *testing.T, p *streamagg.Pipeline) map[string][]byte {
	t.Helper()
	norm := fedTestPipeline(t, 0)
	if err := norm.Merge(p); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range []string{"cm", "dist", "sk"} {
		agg, _ := norm.Get(name)
		data, err := agg.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// assertMatchesUnion checks what srv answers against one pipeline fed
// the union stream: cm, dist and sk cell for cell, and hot (Misra–Gries,
// ε = 0.005) within ε·Σm of the exact counts.
func assertMatchesUnion(t *testing.T, what string, srv *Server, union []uint64) {
	t.Helper()
	view := srv.Federation().View()
	if got := view.StreamLen(); got != int64(len(union)) {
		t.Fatalf("%s: StreamLen = %d, want %d", what, got, len(union))
	}
	oracle := fedTestPipeline(t, 0)
	if err := oracle.ProcessBatch(union); err != nil {
		t.Fatal(err)
	}
	got, want := linearBytes(t, view), linearBytes(t, oracle)
	for name := range want {
		if !bytes.Equal(got[name], want[name]) {
			t.Fatalf("%s: %s differs from the sketch of the union stream (%d items)", what, name, len(union))
		}
	}
	exact := map[uint64]int64{}
	for _, it := range union {
		exact[it]++
	}
	hot, _ := view.Get("hot")
	slack := int64(0.005 * float64(len(union)))
	for item, f := range exact {
		if est := hot.(*streamagg.FreqEstimator).Estimate(item); est > f || est < f-slack {
			t.Fatalf("%s: hot.Estimate(%d) = %d outside [%d, %d]", what, item, est, f-slack, f)
		}
	}
}

// TestFederationTreeMatchesUnion is [ACH+13] over a tree of servers:
// random trees of depth ≤ 3 and fan-out ≤ 3, local ingest at every
// node, full pushes in random order with replacement, then one
// bottom-up round. The top must then answer like one pipeline fed
// every node's stream, because each interior node pushes its whole view.
func TestFederationTreeMatchesUnion(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			checkTree(t, seed)
		})
	}
}

func checkTree(t *testing.T, seed int64) {
	const maxNodes = 12
	rng := rand.New(rand.NewSource(seed))
	// Breadth first, so every child comes after its parent.
	nodes := []*fedNode{newFedNode(t, nil, "top")}
	for i := 0; i < len(nodes) && len(nodes) < maxNodes; i++ {
		if nodes[i].depth == 3 {
			continue
		}
		kids := rng.Intn(4)
		if i == 0 {
			kids = 1 + rng.Intn(3)
		}
		for k := 0; k < kids && len(nodes) < maxNodes; k++ {
			nodes = append(nodes, newFedNode(t, nodes[i], fmt.Sprint("n", len(nodes))))
		}
	}
	var union []uint64
	ingest := func(n *fedNode) {
		items := workload.Zipf(rng.Int63(), 200+rng.Intn(2000), 1.1+rng.Float64(), 1<<12)
		n.ingest(t, items)
		union = append(union, items...)
	}
	for _, n := range nodes {
		ingest(n)
	}
	for step := 0; step < 3*len(nodes); step++ {
		if rng.Intn(3) == 0 {
			ingest(nodes[rng.Intn(len(nodes))])
		} else {
			nodes[1+rng.Intn(len(nodes)-1)].push(t)
		}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		nodes[i].push(t)
	}
	depth := nodes[len(nodes)-1].depth
	assertMatchesUnion(t, fmt.Sprintf("seed %d (%d nodes, depth %d)", seed, len(nodes), depth),
		nodes[0].srv.Load(), union)
}

// TestFederationFullModeHealsCrashes: every full push carries a node's
// whole state, so after a crash one more round of pushes brings the top
// back to the union exactly, with nothing counted twice.
func TestFederationFullModeHealsCrashes(t *testing.T) {
	stream := func(seed int64) []uint64 { return workload.Zipf(seed, 5000, 1.2, 1<<12) }
	cat := func(ss ...[]uint64) []uint64 {
		var out []uint64
		for _, s := range ss {
			out = append(out, s...)
		}
		return out
	}

	t.Run("durable edge", func(t *testing.T) {
		top := newFedNode(t, nil, "top")
		edge := newFedNode(t, top, "edge")
		dir := t.TempDir()
		edge.start(t, 1, streamagg.WithDataDir(dir))
		local, a, b := stream(1), stream(2), stream(3)
		top.ingest(t, local)
		edge.ingest(t, a)
		edge.push(t)
		edge.ingest(t, b)
		// The edge crashes before it pushes b: what it leaves behind is
		// its directory as of now. It comes back from that image under
		// a fresh epoch and recovers a and b.
		image := t.TempDir()
		if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		edge.start(t, 2, streamagg.WithDataDir(image))
		edge.push(t)
		assertMatchesUnion(t, "after the edge's restart", top.srv.Load(), cat(local, a, b))
	})

	t.Run("interior node restarts empty", func(t *testing.T) {
		top := newFedNode(t, nil, "top")
		mid := newFedNode(t, top, "mid")
		leaf := newFedNode(t, mid, "leaf")
		local, own, a := stream(4), stream(5), stream(6)
		top.ingest(t, local)
		mid.ingest(t, own)
		leaf.ingest(t, a)
		leaf.push(t)
		mid.push(t)
		assertMatchesUnion(t, "before the restart", top.srv.Load(), cat(local, own, a))
		// Memory only, the mid node loses its own stream for good. Its
		// first push replaces its part with nothing: the top
		// under-counts the subtree until the leaf pushes again.
		mid.start(t, 2)
		mid.push(t)
		assertMatchesUnion(t, "after the mid node's first push", top.srv.Load(), local)
		leaf.push(t)
		mid.push(t)
		assertMatchesUnion(t, "after the leaf pushed again", top.srv.Load(), cat(local, a))
	})

	t.Run("root restored from its checkpoint", func(t *testing.T) {
		top := newFedNode(t, nil, "top")
		left := newFedNode(t, top, "left")
		right := newFedNode(t, top, "right")
		local, a, b := stream(7), stream(8), stream(9)
		top.ingest(t, local)
		left.ingest(t, a)
		right.ingest(t, b)
		left.push(t)
		right.push(t)
		// /v1/checkpoint at a root is its base only: restoring the view
		// would count the children twice once they push again.
		ckpt := checkpointBytes(t, http.DefaultClient, top.url)
		top.start(t, 1)
		if code, resp := post(t, http.DefaultClient, top.url+"/v1/restore",
			"application/octet-stream", ckpt); code != http.StatusOK {
			t.Fatalf("restore: %d %s", code, resp)
		}
		assertMatchesUnion(t, "after the restore", top.srv.Load(), local)
		left.push(t)
		right.push(t)
		assertMatchesUnion(t, "after the children pushed again", top.srv.Load(), cat(local, a, b))
	})
}
