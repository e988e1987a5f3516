package distributed

import (
	"io"
	"sort"

	"repro/internal/exec"
)

// Cluster-level checkpointing for tests: variables live on different
// servers but have globally unique names, so a checkpoint is the union of
// the per-server stores. Restore happens in place (the per-server tensors
// keep their registered-memory placement, preserving the §3.2 address
// stability). Recovery keeps its own per-task snapshots (recovery.go).

// SaveCheckpoint writes every server's variables to w.
func (c *Cluster) SaveCheckpoint(w io.Writer) error {
	merged, err := c.mergedStore()
	if err != nil {
		return err
	}
	return merged.Save(w)
}

// LoadCheckpoint restores every variable in place from r. All checkpointed
// variables must exist on some server with matching dtype and size.
func (c *Cluster) LoadCheckpoint(r io.Reader) error {
	merged, err := c.mergedStore()
	if err != nil {
		return err
	}
	return merged.Load(r)
}

// mergedStore builds a store aliasing every server's variable tensors (so
// Save sees them all and Load writes through to them).
func (c *Cluster) mergedStore() (*exec.VarStore, error) {
	merged := exec.NewVarStore()
	srvs := c.serversSnapshot()
	tasks := make([]string, 0, len(srvs))
	for t := range srvs {
		tasks = append(tasks, t)
	}
	sort.Strings(tasks)
	for _, task := range tasks {
		store := srvs[task].VarStore
		for _, name := range store.Names() {
			t, err := store.VarTensor(name)
			if err != nil {
				return nil, err
			}
			if err := merged.Create(name, t); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}
