package core

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
	return &ChainDiff{From: a.Snapshot, To: b.Snapshot,
		Companies: changes(a.Companies, b.Companies, companyColumns.key, companyEqual,
			func(id, change string, before, after *Company) CompanyChange {
				return CompanyChange{id, change, before, after}
			}),
		Investors: changes(a.Investors, b.Investors, investorColumns.key, investorEqual,
			func(id, change string, before, after *Investor) InvestorChange {
				return InvestorChange{id, change, before, after}
			}),
	}
}

// changes lists, in ID order, the chain row made by row for each row
// that differs between the ID-sorted lists prev and next.
func changes[T, C any](prev, next []T, id func(*T) string, equal func(a, b T) bool,
	row func(id, change string, before, after *T) C) []C {
	var out []C
	diffSorted(prev, next, id, equal, func(before, after *T) {
		switch {
		case before == nil:
			out = append(out, row(id(after), ChangeAdded, nil, after))
		case after == nil:
			out = append(out, row(id(before), ChangeRemoved, before, nil))
		default:
			out = append(out, row(id(after), ChangeChanged, before, after))
		}
	})
	return out
}
