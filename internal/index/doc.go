// Package index builds, persists and probes secondary indexes over the
// frozen columnar snapshots, the structures that turn the interactive
// query path from scan-everything into probe-then-materialize:
//
//   - attribute inverted indexes: for each boolean attribute, the rows
//     where it is true, persisted as a sorted postings list and held as
//     a row bitmap of ⌈rows/64⌉ words;
//   - orderings: for each integer column, the permutation of row ids
//     sorted by value (ties by row id) alongside the sorted values,
//     powering range predicates by binary search and top-k traversal
//     without a full sort.
//
// Every probe answers with a Bitmap over the table's rows: a boolean
// conjunct copies its key's bitmap (inverted for false), a range sets
// the bits of its ordering window, conjunctions AND word by word,
// counts are popcounts, and the set bits come out in ascending row
// order with no sort.
//
// Indexes are encoded as named CSFROZ01 sections (the same CRC-checked
// container the frozen snapshots use) and committed as one blob per
// snapshot in the store's blob namespace, built at freeze time by
// core.BuildFrozen. Decoding validates every structural invariant —
// postings strictly increasing and in range, permutations complete,
// values sorted, the row count held by the orderings, no key named
// twice, bitmaps no larger in total than the blob — so a flipped byte
// fails loudly instead of silently corrupting query results (or sizing
// bitmaps by a forged row count); the planner then falls back to a
// scan.
//
// Column keys are canonical query expressions ("Raising", "Likes",
// "LEN(Investments)"), which is what lets the planner match WHERE
// conjuncts against index entries by string comparison alone.
package index
