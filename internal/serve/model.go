package serve

import (
	"repro/internal/graph"
	"repro/internal/tensor"
)

// MLPForward is the serving-side twin of the training MLP: the same
// variable set (w1, b1, w2, b2 with the same shapes — the layout contract)
// but forward-only, ending in a softmax instead of the training loss. The
// feed's leading dim is dynamic: each dispatch runs exactly the rows it
// carries, at most batch of them.
func MLPForward(batch, in, hidden, classes int) ForwardSpec {
	return ForwardSpec{
		Feed:    "x",
		Fetch:   "probs",
		Batch:   batch,
		Inputs:  in,
		Classes: classes,
		Build: func(b *graph.Builder) error {
			x := b.Placeholder("x", graph.Dyn(tensor.Float32, -1, in))
			w1 := b.Variable("w1", graph.Static(tensor.Float32, in, hidden))
			b1 := b.Variable("b1", graph.Static(tensor.Float32, hidden))
			w2 := b.Variable("w2", graph.Static(tensor.Float32, hidden, classes))
			b2 := b.Variable("b2", graph.Static(tensor.Float32, classes))
			h := b.ReLU("h", b.BiasAdd("z1", b.MatMul("mm1", x, w1), b1))
			b.Softmax("probs", b.BiasAdd("logits", b.MatMul("mm2", h, w2), b2))
			return b.Err()
		},
	}
}
