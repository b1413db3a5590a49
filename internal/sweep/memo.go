package sweep

import (
	"fmt"
	"sync"

	"photoloop/internal/arch"
	"photoloop/internal/presets"
	"photoloop/internal/workload"
)

// A repeat evaluation takes its inputs from the process-wide memos below
// instead of rebuilding them. Both are bounded by their registries (the
// workload zoo and the preset library), so neither needs a cap.

// zooEntry is one zoo network, built at batch 1 on first use.
type zooEntry struct {
	workload.ZooEntry
	once sync.Once
	net  workload.Network
}

// zooMemo holds every zoo network by name.
var zooMemo = func() map[string]*zooEntry {
	m := map[string]*zooEntry{}
	for _, e := range workload.ZooEntries() {
		m[e.Name] = &zooEntry{ZooEntry: e}
	}
	return m
}()

// buildZooNetwork builds a zoo network at batch 1 (a variable so tests can
// count the builds).
var buildZooNetwork = func(e workload.ZooEntry) workload.Network { return e.Build(1) }

// zooNetwork returns the named zoo network at batch 1, built once and
// shared: callers must not modify it. WithBatch gives any other batch,
// since every zoo builder scales its layers' batch exactly as WithBatch
// does.
func zooNetwork(name string) (*workload.Network, error) {
	e, ok := zooMemo[name]
	if !ok {
		_, err := workload.ByName(name, 1) // the zoo's own unknown-name error
		return nil, err
	}
	e.once.Do(func() { e.net = buildZooNetwork(e.ZooEntry) })
	return &e.net, nil
}

// presetEntry is one library preset and, for a preset not backed by an
// Albireo configuration, its architecture, built on first use. (Albireo
// presets take theirs from albireo.SessionFor.)
type presetEntry struct {
	preset *presets.Preset
	once   sync.Once
	arch   *arch.Arch
	err    error
}

// presetMemo holds every library preset by name.
var presetMemo = func() map[string]*presetEntry {
	m := map[string]*presetEntry{}
	for _, p := range presets.All() {
		m[p.Name] = &presetEntry{preset: p}
	}
	return m
}()

// buildPreset builds a preset's architecture (a variable so tests can
// count the builds).
var buildPreset = (*presets.Preset).Build

// presetByName returns the named preset's memo entry. The preset is
// shared; its Albireo method returns a copy of the configuration.
func presetByName(name string) (*presetEntry, error) {
	e, ok := presetMemo[name]
	if !ok {
		_, err := presets.ByName(name) // the library's unknown-name error
		return nil, fmt.Errorf("sweep: eval request: %w", err)
	}
	return e, nil
}

// build returns the preset's architecture, built once and shared: callers
// must not modify it.
func (e *presetEntry) build() (*arch.Arch, error) {
	e.once.Do(func() { e.arch, e.err = buildPreset(e.preset) })
	return e.arch, e.err
}
