package core

import "sort"

// The snapshot chain is the store's history of frozen snapshots, each
// read from its own artifact (CommitDelta always commits the full
// frozen/snap-N after frozen/delta-N, and RecoverChain closes the crash
// window between the two). Longitudinal "changed between v3 and v5"
// queries diff two of them.

// Change kinds reported by diffSnapshots.
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

// diffSnapshots reports every entity added, removed, or changed
// between snapshots a and b; equal endpoints yield an empty diff.
func diffSnapshots(a, b *FrozenSnapshot) *ChainDiff {
	cd := &ChainDiff{From: a.Snapshot, To: b.Snapshot}
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
	return cd
}
