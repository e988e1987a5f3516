package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Core plumbing operators: inputs, state, elementwise arithmetic, shape
// manipulation, and the SGD update. Neural-network math lives in ops_nn.go.

// Differentiable is implemented by operators that can contribute to
// reverse-mode differentiation: given the gradient flowing into the node's
// output, BuildGrad emits nodes computing the gradient for each input
// (nil entries mark inputs that need no gradient, e.g. integer labels).
type Differentiable interface {
	BuildGrad(gb *GradBuilder, node *Node, outGrad *Node) ([]*Node, error)
}

// mergeElementwise reconciles two signatures that must be equal shape.
func mergeElementwise(opName string, a, b Sig) (Sig, error) {
	if a.DType != b.DType {
		return Sig{}, fmt.Errorf("%s: dtype %v vs %v: %w", opName, a.DType, b.DType, ErrBadGraph)
	}
	if a.Shape.Rank() != b.Shape.Rank() {
		return Sig{}, fmt.Errorf("%s: rank %v vs %v: %w", opName, a.Shape, b.Shape, ErrBadGraph)
	}
	out := Sig{DType: a.DType}
	out.Shape = make(tensor.Shape, a.Shape.Rank())
	for i := range out.Shape {
		da, db := a.Shape[i], b.Shape[i]
		switch {
		case da >= 0 && db >= 0 && da != db:
			return Sig{}, fmt.Errorf("%s: dim %d is %d vs %d: %w", opName, i, da, db, ErrBadGraph)
		case da >= 0:
			out.Shape[i] = da
		default:
			out.Shape[i] = db
		}
	}
	// The merge is static exactly when every dimension is pinned: a static
	// operand forces the matching dims of a dynamic one.
	out.Static = true
	for _, d := range out.Shape {
		if d < 0 {
			out.Static = false
			break
		}
	}
	return out, nil
}

func wantInputs(opName string, sigs []Sig, n int) error {
	if len(sigs) != n {
		return fmt.Errorf("%s: %d inputs, want %d: %w", opName, len(sigs), n, ErrBadGraph)
	}
	return nil
}

// --- Placeholder ---

type placeholderOp struct{ sig Sig }

// Placeholder adds an input node fed per iteration via Context.Feeds.
func (b *Builder) Placeholder(name string, sig Sig) *Node {
	return b.AddNode(name, &placeholderOp{sig: sig})
}

func (op *placeholderOp) Name() string { return "Placeholder" }

func (op *placeholderOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Placeholder", in, 0); err != nil {
		return Sig{}, err
	}
	return op.sig, nil
}

func (op *placeholderOp) Compute(ctx *Context) error {
	t, ok := ctx.Feeds[ctx.Node.Name()]
	if !ok {
		return fmt.Errorf("graph: no feed for placeholder %q", ctx.Node.Name())
	}
	ctx.Output = t
	return nil
}

// --- Variable ---

type variableOp struct{ sig Sig }

// Variable adds a persistent model-parameter node. Its storage lives in the
// executor's variable store; the paper's analysis classifies variables as
// statically placed tensors (§3.2).
func (b *Builder) Variable(name string, sig Sig) *Node {
	return b.AddNode(name, &variableOp{sig: sig})
}

// IsVariable reports whether a node is a Variable.
func IsVariable(n *Node) bool {
	_, ok := n.Op().(*variableOp)
	return ok
}

func (op *variableOp) Name() string { return "Variable" }

func (op *variableOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Variable", in, 0); err != nil {
		return Sig{}, err
	}
	if !op.sig.Static {
		return Sig{}, fmt.Errorf("Variable: shape must be static: %w", ErrBadGraph)
	}
	return op.sig, nil
}

func (op *variableOp) Compute(ctx *Context) error {
	t, err := ctx.Vars.VarTensor(ctx.Node.Name())
	if err != nil {
		return err
	}
	ctx.Output = t
	return nil
}

// --- Const ---

type constOp struct{ value *tensor.Tensor }

// Const adds a node producing a fixed tensor. The tensor is shared across
// iterations; kernels must not mutate their inputs.
func (b *Builder) Const(name string, value *tensor.Tensor) *Node {
	return b.AddNode(name, &constOp{value: value})
}

func (op *constOp) Name() string { return "Const" }

func (op *constOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Const", in, 0); err != nil {
		return Sig{}, err
	}
	return Sig{DType: op.value.DType(), Shape: op.value.Shape().Clone(), Static: true}, nil
}

func (op *constOp) Compute(ctx *Context) error {
	ctx.Output = op.value
	return nil
}

// --- Identity ---

type identityOp struct{}

// Identity adds a passthrough node (useful as a named fetch point).
func (b *Builder) Identity(name string, x *Node) *Node {
	return b.AddNode(name, identityOp{}, x)
}

func (identityOp) Name() string { return "Identity" }

func (identityOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Identity", in, 1); err != nil {
		return Sig{}, err
	}
	return in[0], nil
}

func (identityOp) Compute(ctx *Context) error {
	ctx.Output = ctx.Inputs[0]
	return nil
}

func (identityOp) BuildGrad(gb *GradBuilder, node *Node, outGrad *Node) ([]*Node, error) {
	return []*Node{outGrad}, nil
}

// --- Add / Sub / Mul ---

type addOp struct{}

// Add adds an elementwise-sum node.
func (b *Builder) Add(name string, x, y *Node) *Node { return b.AddNode(name, addOp{}, x, y) }

func (addOp) Name() string { return "Add" }

func (addOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Add", in, 2); err != nil {
		return Sig{}, err
	}
	return mergeElementwise("Add", in[0], in[1])
}

func (addOp) Compute(ctx *Context) error {
	out, err := ctx.Alloc(ctx.Inputs[0].DType(), ctx.Inputs[0].Shape())
	if err != nil {
		return err
	}
	if err := tensor.Add(out, ctx.Inputs[0], ctx.Inputs[1]); err != nil {
		return err
	}
	ctx.Output = out
	return nil
}

func (addOp) BuildGrad(gb *GradBuilder, node *Node, outGrad *Node) ([]*Node, error) {
	return []*Node{outGrad, outGrad}, nil
}

type subOp struct{}

// Sub adds an elementwise-difference node.
func (b *Builder) Sub(name string, x, y *Node) *Node { return b.AddNode(name, subOp{}, x, y) }

func (subOp) Name() string { return "Sub" }

func (subOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Sub", in, 2); err != nil {
		return Sig{}, err
	}
	return mergeElementwise("Sub", in[0], in[1])
}

func (subOp) Compute(ctx *Context) error {
	out, err := ctx.Alloc(ctx.Inputs[0].DType(), ctx.Inputs[0].Shape())
	if err != nil {
		return err
	}
	if err := tensor.Sub(out, ctx.Inputs[0], ctx.Inputs[1]); err != nil {
		return err
	}
	ctx.Output = out
	return nil
}

func (subOp) BuildGrad(gb *GradBuilder, node *Node, outGrad *Node) ([]*Node, error) {
	neg := gb.Add("neg", &scaleOp{Alpha: -1}, outGrad)
	return []*Node{outGrad, neg}, nil
}

type mulOp struct{}

// Mul adds an elementwise (Hadamard) product node.
func (b *Builder) Mul(name string, x, y *Node) *Node { return b.AddNode(name, mulOp{}, x, y) }

func (mulOp) Name() string { return "Mul" }

func (mulOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Mul", in, 2); err != nil {
		return Sig{}, err
	}
	return mergeElementwise("Mul", in[0], in[1])
}

func (mulOp) Compute(ctx *Context) error {
	out, err := ctx.Alloc(ctx.Inputs[0].DType(), ctx.Inputs[0].Shape())
	if err != nil {
		return err
	}
	if err := tensor.Mul(out, ctx.Inputs[0], ctx.Inputs[1]); err != nil {
		return err
	}
	ctx.Output = out
	return nil
}

func (mulOp) BuildGrad(gb *GradBuilder, node *Node, outGrad *Node) ([]*Node, error) {
	dx := gb.Add("mulgrad_x", mulOp{}, outGrad, node.Inputs()[1])
	dy := gb.Add("mulgrad_y", mulOp{}, outGrad, node.Inputs()[0])
	return []*Node{dx, dy}, nil
}

// --- Scale ---

type scaleOp struct{ Alpha float32 }

// Scale adds a node multiplying its input by a constant.
func (b *Builder) Scale(name string, x *Node, alpha float32) *Node {
	return b.AddNode(name, &scaleOp{Alpha: alpha}, x)
}

func (op *scaleOp) Name() string { return "Scale" }

func (op *scaleOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Scale", in, 1); err != nil {
		return Sig{}, err
	}
	return in[0], nil
}

func (op *scaleOp) Compute(ctx *Context) error {
	out, err := ctx.Alloc(ctx.Inputs[0].DType(), ctx.Inputs[0].Shape())
	if err != nil {
		return err
	}
	if err := out.CopyFrom(ctx.Inputs[0]); err != nil {
		return err
	}
	tensor.Scale(op.Alpha, out)
	ctx.Output = out
	return nil
}

func (op *scaleOp) BuildGrad(gb *GradBuilder, node *Node, outGrad *Node) ([]*Node, error) {
	return []*Node{gb.Add("scalegrad", &scaleOp{Alpha: op.Alpha}, outGrad)}, nil
}

// --- Reshape ---

type reshapeOp struct{ shape tensor.Shape }

// Reshape adds a node viewing its input with a new static shape.
func (b *Builder) Reshape(name string, x *Node, dims ...int) *Node {
	return b.AddNode(name, &reshapeOp{shape: tensor.Shape(dims).Clone()}, x)
}

func (op *reshapeOp) Name() string { return "Reshape" }

func (op *reshapeOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("Reshape", in, 1); err != nil {
		return Sig{}, err
	}
	if !in[0].Static {
		return Sig{}, fmt.Errorf("Reshape: dynamic input unsupported: %w", ErrBadGraph)
	}
	if op.shape.NumElements() != in[0].Shape.NumElements() {
		return Sig{}, fmt.Errorf("Reshape: %v to %v: %w", in[0].Shape, op.shape, ErrBadGraph)
	}
	return Sig{DType: in[0].DType, Shape: op.shape.Clone(), Static: true}, nil
}

func (op *reshapeOp) Compute(ctx *Context) error {
	out, err := ctx.Inputs[0].Reshape(op.shape...)
	if err != nil {
		return err
	}
	ctx.Output = out
	return nil
}

func (op *reshapeOp) BuildGrad(gb *GradBuilder, node *Node, outGrad *Node) ([]*Node, error) {
	back := gb.Add("reshapegrad", &reshapeOp{shape: node.Inputs()[0].Sig().Shape.Clone()}, outGrad)
	return []*Node{back}, nil
}

// --- ReduceMax ---

type reduceMaxOp struct{}

// ReduceMax adds a node reducing its input to a scalar maximum; the paper's
// micro-benchmark uses it as the lightweight consumer of received tensors.
func (b *Builder) ReduceMax(name string, x *Node) *Node {
	return b.AddNode(name, reduceMaxOp{}, x)
}

func (reduceMaxOp) Name() string { return "ReduceMax" }

func (reduceMaxOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("ReduceMax", in, 1); err != nil {
		return Sig{}, err
	}
	return Static(tensor.Float32), nil
}

func (reduceMaxOp) Compute(ctx *Context) error {
	out, err := ctx.Alloc(tensor.Float32, nil)
	if err != nil {
		return err
	}
	out.Float32s()[0] = tensor.ReduceMax(ctx.Inputs[0])
	ctx.Output = out
	return nil
}

// --- ApplySGD ---

type applySGDOp struct {
	varName string
	lr      float32
}

// ApplySGD adds a node performing the SGD update var -= lr*grad in place on
// the variable's persistent storage. Its output is the updated variable
// tensor, so downstream sends (weights back to workers) chain off it.
// Because the update mutates storage other nodes read, the node takes
// control dependencies on every existing reader of the variable
// (read-before-update ordering).
func (b *Builder) ApplySGD(name string, variable *Node, grad *Node, lr float32) *Node {
	if b.Err() == nil && variable != nil && !IsVariable(variable) {
		b.fail(fmt.Errorf("ApplySGD: %q is not a Variable: %w", variable.Name(), ErrBadGraph))
		return nil
	}
	if variable == nil {
		return b.fail(fmt.Errorf("ApplySGD: nil variable: %w", ErrBadGraph))
	}
	n := b.AddNode(name, &applySGDOp{varName: variable.Name(), lr: lr}, grad)
	b.orderAfterReaders(n, variable)
	return n
}

// orderAfterReaders adds control edges so update runs after every current
// reader of the variable in the same task partition — including gradient
// nodes whose outputs are otherwise unused (reverse-mode differentiation
// legitimately produces some), which would otherwise race the in-place
// mutation.
func (b *Builder) orderAfterReaders(update, variable *Node) {
	if update == nil || variable == nil || b.err != nil {
		return
	}
	for _, n := range b.g.nodes {
		if n == update || n.Task() != update.Task() {
			continue
		}
		for _, in := range n.inputs {
			if in == variable {
				b.controlDepWeak(update, n)
				break
			}
		}
	}
}

func (op *applySGDOp) Name() string { return "ApplySGD" }

// VarName returns the updated variable's name (used by the PS runtime).
func (op *applySGDOp) VarName() string { return op.varName }

// UpdatedVariable reports the variable an in-place optimizer op (ApplySGD,
// ApplyMomentum) mutates; ok is false for every other operator.
func UpdatedVariable(op Op) (string, bool) {
	switch a := op.(type) {
	case *applySGDOp:
		return a.varName, true
	case *applyMomentumOp:
		return a.varName, true
	case *applyAdamOp:
		return a.varName, true
	default:
		return "", false
	}
}

func (op *applySGDOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("ApplySGD", in, 1); err != nil {
		return Sig{}, err
	}
	return in[0], nil
}

func (op *applySGDOp) Compute(ctx *Context) error {
	v, err := ctx.Vars.VarTensor(op.varName)
	if err != nil {
		return err
	}
	if err := tensor.Axpy(-op.lr, ctx.Inputs[0], v); err != nil {
		return err
	}
	ctx.Output = v
	return nil
}

// --- ApplyMomentum ---

type applyMomentumOp struct {
	varName  string
	lr       float32
	momentum float32
}

// ApplyMomentum adds a node performing the classical momentum update
//
//	v = momentum*v + grad;  var -= lr*v
//
// in place on the variable's persistent storage. The velocity slot is a
// hidden variable named "<var>/velocity", created lazily on first use (so
// checkpoints taken before the first step simply omit it).
func (b *Builder) ApplyMomentum(name string, variable *Node, grad *Node, lr, momentum float32) *Node {
	if variable == nil {
		return b.fail(fmt.Errorf("ApplyMomentum: nil variable: %w", ErrBadGraph))
	}
	if b.Err() == nil && !IsVariable(variable) {
		b.fail(fmt.Errorf("ApplyMomentum: %q is not a Variable: %w", variable.Name(), ErrBadGraph))
		return nil
	}
	n := b.AddNode(name, &applyMomentumOp{varName: variable.Name(), lr: lr, momentum: momentum}, grad)
	b.orderAfterReaders(n, variable)
	return n
}

func (op *applyMomentumOp) Name() string { return "ApplyMomentum" }

func (op *applyMomentumOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("ApplyMomentum", in, 1); err != nil {
		return Sig{}, err
	}
	return in[0], nil
}

func (op *applyMomentumOp) Compute(ctx *Context) error {
	v, err := ctx.Vars.VarTensor(op.varName)
	if err != nil {
		return err
	}
	slotName := op.varName + "/velocity"
	vel, err := ctx.Vars.VarTensor(slotName)
	if err != nil {
		creator, ok := ctx.Vars.(interface {
			Create(string, *tensor.Tensor) error
		})
		if !ok {
			return fmt.Errorf("graph: variable store cannot create momentum slot %q", slotName)
		}
		vel = tensor.New(v.DType(), v.Shape()...)
		if err := creator.Create(slotName, vel); err != nil {
			return err
		}
	}
	// v = momentum*v + grad
	tensor.Scale(op.momentum, vel)
	if err := tensor.Axpy(1, ctx.Inputs[0], vel); err != nil {
		return err
	}
	// var -= lr*v
	if err := tensor.Axpy(-op.lr, vel, v); err != nil {
		return err
	}
	ctx.Output = v
	return nil
}

// --- NoOp / Group ---

type noOp struct{}

// Group adds a synchronization node depending on all deps via control
// edges; its output is an empty scalar. Use it as the per-iteration sink.
func (b *Builder) Group(name string, deps ...*Node) *Node {
	n := b.AddNode(name, noOp{})
	for _, d := range deps {
		b.ControlDep(n, d)
	}
	return n
}

func (noOp) Name() string { return "NoOp" }

func (noOp) InferSig(in []Sig) (Sig, error) {
	if err := wantInputs("NoOp", in, 0); err != nil {
		return Sig{}, err
	}
	return Static(tensor.Float32), nil
}

func (noOp) Compute(ctx *Context) error {
	out, err := ctx.Alloc(tensor.Float32, nil)
	if err != nil {
		return err
	}
	ctx.Output = out
	return nil
}
