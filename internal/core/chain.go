package core

import (
	"fmt"
	"sort"

	"crowdscope/internal/store"
)

// A Chain is the snapshot history of a store viewed as base artifacts
// plus deltas: any version is materialized from the nearest committed
// frozen snapshot at or below it by applying the intervening deltas.
// This is what longitudinal "changed between v3 and v5" queries ride
// on, and what lets a store keep serving every version even if future
// compaction drops intermediate full artifacts.
type Chain struct {
	st     *store.Store
	frozen map[int]bool
	deltas map[int]bool // keyed by the snapshot the delta produces

	// Tiny materialization cache: longitudinal diffs hit the same two
	// endpoints repeatedly, and chains are short.
	cache map[int]*FrozenSnapshot
	order []int
}

// chainCacheSize bounds how many materialized versions a Chain retains.
const chainCacheSize = 2

// LoadChain indexes the store's snapshot history. It fails if the store
// holds no frozen snapshot at all; gaps in the chain are allowed and
// only surface when a version that cannot be materialized is requested.
func LoadChain(st *store.Store) (*Chain, error) {
	c := &Chain{
		st:     st,
		frozen: make(map[int]bool),
		deltas: make(map[int]bool),
		cache:  make(map[int]*FrozenSnapshot),
	}
	for _, ns := range st.Namespaces() {
		var snap int
		if _, err := fmt.Sscanf(ns, "frozen/snap-%d", &snap); err == nil && st.HasBlob(ns) {
			c.frozen[snap] = true
			continue
		}
		if _, err := fmt.Sscanf(ns, "frozen/delta-%d", &snap); err == nil && st.HasBlob(ns) {
			c.deltas[snap] = true
		}
	}
	if len(c.frozen) == 0 {
		return nil, fmt.Errorf("core: load chain: store holds no frozen snapshot")
	}
	return c, nil
}

// baseFor finds the highest frozen snapshot <= snap from which snap is
// reachable through an unbroken run of deltas, or -1 if none is.
func (c *Chain) baseFor(snap int) int {
	for b := snap; b >= 0; b-- {
		if c.frozen[b] {
			return b
		}
		if !c.deltas[b] {
			return -1 // gap: b is neither frozen nor producible
		}
	}
	return -1
}

// Snapshot materializes version snap: directly from its frozen artifact
// when committed, otherwise from the nearest frozen base below it plus
// the intervening deltas.
func (c *Chain) Snapshot(snap int) (*FrozenSnapshot, error) {
	if fs, ok := c.cache[snap]; ok {
		return fs, nil
	}
	base := c.baseFor(snap)
	if base < 0 {
		return nil, fmt.Errorf("core: chain cannot materialize snapshot %d: no frozen base with an unbroken delta run", snap)
	}
	fs, err := LoadFrozen(c.st, base)
	if err != nil {
		return nil, fmt.Errorf("core: chain: %w", err)
	}
	for v := base + 1; v <= snap; v++ {
		sd, err := LoadDelta(c.st, v)
		if err != nil {
			return nil, fmt.Errorf("core: chain: %w", err)
		}
		fs, err = ApplyDelta(fs, sd)
		if err != nil {
			return nil, fmt.Errorf("core: chain: %w", err)
		}
	}
	c.remember(snap, fs)
	return fs, nil
}

func (c *Chain) remember(snap int, fs *FrozenSnapshot) {
	if _, ok := c.cache[snap]; ok {
		return
	}
	for len(c.order) >= chainCacheSize {
		delete(c.cache, c.order[0])
		c.order = c.order[1:]
	}
	c.cache[snap] = fs
	c.order = append(c.order, snap)
}

// Change kinds reported by Chain.Diff.
const (
	ChangeAdded   = "added"
	ChangeRemoved = "removed"
	ChangeChanged = "changed"
)

// CompanyChange is one company's evolution between two chain versions.
// Before is nil for added entities, After for removed ones; JSON field
// names match the Go names so longitudinal queries address them as
// e.g. After.Likes.
type CompanyChange struct {
	ID     string
	Change string
	Before *Company `json:",omitempty"`
	After  *Company `json:",omitempty"`
}

// InvestorChange is one investor's evolution between two chain versions.
type InvestorChange struct {
	ID     string
	Change string
	Before *Investor `json:",omitempty"`
	After  *Investor `json:",omitempty"`
}

// ChainDiff is the entity-level difference between two snapshot
// versions, sorted by ID within each entity kind.
type ChainDiff struct {
	From, To  int
	Companies []CompanyChange
	Investors []InvestorChange
}

// diff materializes both endpoints and reports every entity added,
// removed, or changed between them. from must be <= to; equal endpoints
// yield an empty diff.
func (c *Chain) diff(from, to int) (*ChainDiff, error) {
	if from > to {
		return nil, fmt.Errorf("core: chain diff: from %d > to %d", from, to)
	}
	a, err := c.Snapshot(from)
	if err != nil {
		return nil, err
	}
	b, err := c.Snapshot(to)
	if err != nil {
		return nil, err
	}
	cd := &ChainDiff{From: from, To: to}
	sd := DiffFrozen(a, b)
	byIDCo := make(map[string]*Company, len(a.Companies))
	for i := range a.Companies {
		byIDCo[a.Companies[i].ID] = &a.Companies[i]
	}
	for i := range sd.CompanyUpserts {
		up := &sd.CompanyUpserts[i]
		ch := CompanyChange{ID: up.ID, Change: ChangeAdded, After: up}
		if before, ok := byIDCo[up.ID]; ok {
			ch.Change = ChangeChanged
			ch.Before = before
		}
		cd.Companies = append(cd.Companies, ch)
	}
	for _, id := range sd.CompanyDrops {
		cd.Companies = append(cd.Companies, CompanyChange{ID: id, Change: ChangeRemoved, Before: byIDCo[id]})
	}
	sort.Slice(cd.Companies, func(i, j int) bool { return cd.Companies[i].ID < cd.Companies[j].ID })

	byIDInv := make(map[string]*Investor, len(a.Investors))
	for i := range a.Investors {
		byIDInv[a.Investors[i].ID] = &a.Investors[i]
	}
	for i := range sd.InvestorUpserts {
		up := &sd.InvestorUpserts[i]
		ch := InvestorChange{ID: up.ID, Change: ChangeAdded, After: up}
		if before, ok := byIDInv[up.ID]; ok {
			ch.Change = ChangeChanged
			ch.Before = before
		}
		cd.Investors = append(cd.Investors, ch)
	}
	for _, id := range sd.InvestorDrops {
		cd.Investors = append(cd.Investors, InvestorChange{ID: id, Change: ChangeRemoved, Before: byIDInv[id]})
	}
	sort.Slice(cd.Investors, func(i, j int) bool { return cd.Investors[i].ID < cd.Investors[j].ID })
	return cd, nil
}
