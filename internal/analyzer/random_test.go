package analyzer

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Partitioner property test: for random graphs with random task
// assignments, Partition must produce a graph in which every task forms a
// valid executor partition (all cross-task data edges cut by Send/Recv),
// with exactly one edge per (source node, destination task) pair.

func TestPartitionRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 30; trial++ {
		tasks := []string{"a", "b", "c"}[:rng.Intn(2)+2]
		b := graph.NewBuilder()
		var all []*graph.Node
		for i := 0; i < 3; i++ {
			b.OnTask(tasks[rng.Intn(len(tasks))])
			c, err := tensor.FromFloat32(tensor.Shape{1}, []float32{float32(i)})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b.Const(fmt.Sprintf("c%d", i), c))
		}
		for i := 0; i < 20; i++ {
			b.OnTask(tasks[rng.Intn(len(tasks))])
			a := all[rng.Intn(len(all))]
			c := all[rng.Intn(len(all))]
			var n *graph.Node
			if rng.Intn(2) == 0 {
				n = b.Add(fmt.Sprintf("n%d", i), a, c)
			} else {
				n = b.Identity(fmt.Sprintf("n%d", i), a)
			}
			all = append(all, n)
		}
		res, err := Partition(b, fakeFactory)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Edge keys are unique per (src node, dst task).
		seen := map[string]bool{}
		for _, e := range res.Edges {
			if seen[e.Key] {
				t.Fatalf("trial %d: duplicate edge %s", trial, e.Key)
			}
			seen[e.Key] = true
			if e.SrcTask == e.DstTask {
				t.Fatalf("trial %d: self edge %s", trial, e.Key)
			}
		}
		// Edges are in key order, each id is the edge's index, and the
		// factory saw that id.
		for i, e := range res.Edges {
			if e.ID != i || (i > 0 && res.Edges[i-1].Key >= e.Key) {
				t.Fatalf("trial %d: edge %d is %s with id %d", trial, i, e.Key, e.ID)
			}
		}
		for _, n := range res.Graph.Nodes() {
			if op, ok := n.Op().(*fakeSend); ok && res.Edges[op.spec.ID].Key != op.spec.Key {
				t.Fatalf("trial %d: send op of %s carries id %d", trial, op.spec.Key, op.spec.ID)
			}
		}
		// Every task partition validates under the executor (no
		// cross-partition inputs remain).
		for _, task := range res.Tasks {
			if _, err := exec.New(res.Graph, exec.Config{Task: task}); err != nil {
				t.Fatalf("trial %d task %s: %v", trial, task, err)
			}
		}
		// No node kept a cross-task data input.
		for _, n := range res.Graph.Nodes() {
			for _, in := range n.Inputs() {
				if in.Task() != n.Task() {
					t.Fatalf("trial %d: %s@%s still reads %s@%s",
						trial, n.Name(), n.Task(), in.Name(), in.Task())
				}
			}
		}
		// Summary renders without panicking and mentions every task.
		s := res.Summary()
		for _, task := range res.Tasks {
			if !contains(s, task) {
				t.Fatalf("summary missing task %s:\n%s", task, s)
			}
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
