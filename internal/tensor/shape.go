package tensor

import (
	"fmt"
	"strings"
)

// Shape describes the extent of a tensor along each dimension. A nil or
// empty Shape denotes a scalar. Shapes are value-like: methods never mutate
// the receiver.
type Shape []int

// NumElements returns the total element count, or 0 for an invalid shape.
// A scalar has one element.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			return 0
		}
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Valid reports whether every dimension is non-negative.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d < 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two shapes have identical rank and dimensions.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	if s == nil {
		return nil
	}
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Outer returns the product of all dimensions before the last one; for a
// matrix this is the row count. Scalars and vectors report 1.
func (s Shape) Outer() int {
	if len(s) < 2 {
		return 1
	}
	n := 1
	for _, d := range s[:len(s)-1] {
		n *= d
	}
	return n
}

// Inner returns the extent of the last dimension, or 1 for a scalar.
func (s Shape) Inner() int {
	if len(s) == 0 {
		return 1
	}
	return s[len(s)-1]
}
