package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// canonicalSeed is the default --seed: the seed the pinned references
// below were produced with.
const canonicalSeed = 1

// pinnedChaos64 is the canonical chaos64 sweep's fleet fingerprint: the
// rolling fold over seeds 1..64 of each seed's run fingerprint (trace
// records, final clock, metrics). A chaos-mix block starting at the
// canonical seed must reproduce it over its first 64 seeds.
const pinnedChaos64 = 0x2ba84735b34c7961

// outputs summarizes a block's simulated outputs for the reference gate.
// A program fingerprint folds every job's exact virtual execution times; a
// chaos fleet fingerprint folds every seed's run fingerprint.
type outputs struct {
	Fingerprint uint64 // program fingerprint, or the chaos block's fleet fingerprint
	VirtualNs   int64  // sum of every job's virtual execution time (N-body)
	BaselineNs  int64  // sequential baseline's virtual time (Table 5)
}

// pinnedRefs are the N-body workloads' outputs at the canonical seed and
// size: the Figure 2 and Table 5 programs at body seed 1.
var pinnedRefs = map[string]outputs{
	"nbody-paging":    {Fingerprint: 0x1eefe0b49e406c0b, VirtualNs: 90899656000},
	"nbody-multiprog": {Fingerprint: 0x8e77f217cb7392fa, VirtualNs: 17921110250, BaselineNs: 6265311000},
}

// storedRef is the reference a run records for a block with no pinned
// outputs, keyed by workload, seed, size and the simulator's source
// digest, so a later run of the same code on the same input re-checks it.
type storedRef struct {
	Fingerprint string `json:"fingerprint"`
	VirtualNs   int64  `json:"virtual_ns"`
	BaselineNs  int64  `json:"baseline_ns"`
}

// loadStored returns the reference recorded under dir for key, recording
// got as that reference when there is none yet (or when dir is "").
func loadStored(dir, key string, got outputs) (outputs, error) {
	if dir == "" {
		return got, nil
	}
	path := filepath.Join(dir, key+".json")
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return outputs{}, fmt.Errorf("record reference: %w", err)
		}
		raw, _ := json.Marshal(storedRef{
			Fingerprint: fmt.Sprintf("%016x", got.Fingerprint),
			VirtualNs:   got.VirtualNs,
			BaselineNs:  got.BaselineNs,
		})
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return outputs{}, fmt.Errorf("record reference: %w", err)
		}
		return got, nil
	}
	if err != nil {
		return outputs{}, fmt.Errorf("read reference: %w", err)
	}
	var s storedRef
	if err := json.Unmarshal(raw, &s); err != nil {
		return outputs{}, fmt.Errorf("%s: %w", path, err)
	}
	fp, err := strconv.ParseUint(s.Fingerprint, 16, 64)
	if err != nil {
		return outputs{}, fmt.Errorf("%s: fingerprint: %w", path, err)
	}
	return outputs{Fingerprint: fp, VirtualNs: s.VirtualNs, BaselineNs: s.BaselineNs}, nil
}

func (p outputs) String() string {
	s := fmt.Sprintf("fingerprint %016x", p.Fingerprint)
	if p.VirtualNs != 0 {
		s += fmt.Sprintf(" virtual %dns", p.VirtualNs)
	}
	if p.BaselineNs != 0 {
		s += fmt.Sprintf(" baseline %dns", p.BaselineNs)
	}
	return s
}

// expectFor resolves the reference a run's passes must reproduce. got is
// what this run's reference computation produced. With pin non-nil (the
// canonical seed and size) the pinned values rule and a mismatch is
// reported; otherwise got is checked against — or recorded as — the stored
// reference, which then rules. wrongRef corrupts the result, so tests can
// watch the gate fire.
func expectFor(cfg config, pin *outputs, key string, got outputs, rep *report) (outputs, error) {
	var want outputs
	if pin != nil {
		p := *pin
		if p != got {
			rep.notef("REFERENCE MISMATCH: outputs %s, pinned %s", got, p)
		}
		rep.notef("reference: pinned %s", p)
		want = p
	} else {
		stored, err := loadStored(cfg.refDir, key, got)
		if err != nil {
			return outputs{}, err
		}
		if stored != got {
			rep.notef("REFERENCE MISMATCH: outputs %s, recorded %s", got, stored)
		}
		rep.notef("reference: recorded %s", stored)
		want = stored
	}
	if cfg.wrongRef {
		want.Fingerprint ^= 1
	}
	return want, nil
}
