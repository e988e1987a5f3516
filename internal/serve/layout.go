// Package serve is the inference serving plane: a trainer-side
// WeightPublisher that snapshots a variable store every K steps and
// publishes each version to N inference replicas over the emulated fabric's
// one-sided writes, replica-side forward-only executors that read the
// published weights zero-copy out of registered memory, and a query
// frontend with request batching, admission control, and a routing table
// that balances load across replicas.
//
// The transfer discipline is the paper's §3.2 static placement, applied
// one-to-many: both ends know every weight tensor's shape ahead of time, so
// a replica preallocates two weight banks (double buffering), each an
// ordinary static slot whose payload is the weights plus an 8-byte version
// word, and the publisher sends each version with the training path's
// striped static send — payload first, tail flag last. A replica reads a
// bank's version word only while the bank's flag is set, and the flag is
// written only after every payload stripe's completion, so a torn weight
// set is never observable. The publisher may not overwrite a bank until
// the replica has swapped away from it, drained its readers, and cleared
// its flag (a one-sided release ack follows), which bounds staleness by
// construction: a serving replica is never more than one version behind
// the trainer.
package serve

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// versionWordSize is the version tag after the weights: an 8-byte word
// inside the slot payload, read atomically on both ends.
const versionWordSize = 8

// alignUp rounds n up to the fabric's 8-byte word size, so every weight
// entry and the version word sit on atomic store boundaries.
func alignUp(n int) int { return (n + 7) &^ 7 }

// WeightEntry is one variable's place in the published blob.
type WeightEntry struct {
	Name  string
	DType tensor.DType
	Shape tensor.Shape
	// Off is the entry's byte offset in the bank payload; Size its length.
	Off, Size int
}

// WeightLayout is the deterministic wire layout of one model's weights:
// entries in sorted-name order, each 8-aligned, followed by the version
// word. Publisher and every replica build the identical layout from the
// same (name, dtype, shape) set, which is what lets the transfer be
// one-sided — no per-version metadata ever crosses the wire.
type WeightLayout struct {
	Entries []WeightEntry
	// Payload is the 8-aligned byte size of all entries.
	Payload int
}

// LayoutFor builds the layout for the named variables of a store (all of
// them when names is nil). The order is sorted by name regardless of the
// caller's order, so any two ends holding the same variable set agree.
func LayoutFor(vs *exec.VarStore, names []string) (*WeightLayout, error) {
	if vs == nil {
		return nil, fmt.Errorf("serve: nil variable store")
	}
	if names == nil {
		names = vs.Names()
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	l := &WeightLayout{}
	off := 0
	for _, name := range names {
		t, err := vs.VarTensor(name)
		if err != nil {
			return nil, fmt.Errorf("serve: layout: %w", err)
		}
		size := t.Shape().NumElements() * t.DType().Size()
		l.Entries = append(l.Entries, WeightEntry{
			Name: name, DType: t.DType(), Shape: t.Shape().Clone(),
			Off: off, Size: size,
		})
		off += alignUp(size)
	}
	if off == 0 {
		return nil, fmt.Errorf("serve: layout has no variables")
	}
	l.Payload = off
	return l, nil
}

// BankBytes is the size of one replica weight bank: a static slot holding
// the payload and the version word, then the tail flag.
func (l *WeightLayout) BankBytes() int { return rdma.StaticSlotSize(l.Payload + versionWordSize) }

// VersionOff is the byte offset of the bank's version word.
func (l *WeightLayout) VersionOff() int { return l.Payload }

// Snapshot copies the store's current weight bytes into dst following the
// layout. dst must hold at least Payload bytes. This is the publisher's
// single staging copy; everything downstream is one-sided writes out of
// registered memory.
func (l *WeightLayout) Snapshot(vs *exec.VarStore, dst []byte) error {
	if len(dst) < l.Payload {
		return fmt.Errorf("serve: snapshot buffer %d short of payload %d", len(dst), l.Payload)
	}
	for _, e := range l.Entries {
		t, err := vs.VarTensor(e.Name)
		if err != nil {
			return fmt.Errorf("serve: snapshot: %w", err)
		}
		b := t.Bytes()
		if len(b) != e.Size {
			return fmt.Errorf("serve: snapshot: %s is %dB, layout says %dB", e.Name, len(b), e.Size)
		}
		copy(dst[e.Off:e.Off+e.Size], b)
	}
	return nil
}

// View builds a variable store whose tensors alias buf in place — the
// replica's zero-copy read side. buf is one bank's payload bytes; the
// returned store's tensors observe publisher writes directly, which is
// exactly why a replica must hold a reader refcount on the bank while an
// inference batch runs against it.
func (l *WeightLayout) View(buf []byte) (*exec.VarStore, error) {
	if len(buf) < l.Payload {
		return nil, fmt.Errorf("serve: view buffer %d short of payload %d", len(buf), l.Payload)
	}
	vs := exec.NewVarStore()
	for _, e := range l.Entries {
		t, err := tensor.FromBytes(e.DType, e.Shape, buf[e.Off:e.Off+e.Size])
		if err != nil {
			return nil, fmt.Errorf("serve: view %s: %w", e.Name, err)
		}
		if err := vs.Create(e.Name, t); err != nil {
			return nil, err
		}
	}
	return vs, nil
}
