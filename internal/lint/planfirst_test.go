package lint

import "testing"

const planfirstFixtureSource = `package query

import "context"

type Record interface{ Value(i int) any }

type Source interface {
	ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(Record) error) error
	ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(Record) error) error
}
`

func TestPlanFirstFlagsRecordReadsOutsideMaterializers(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/query/q.go": planfirstFixtureSource + `
func sneakyCount(ctx context.Context, src Source, ns string) (int, error) {
	n := 0
	err := src.ReadRecords(ctx, ns, nil, func(Record) error { n++; return nil })
	return n, err
}

func sneakyRows(ctx context.Context, src Source, ns string) error {
	return src.ReadRows(ctx, ns, nil, nil, func(Record) error { return nil })
}
`,
	})
	got := findings(t, m, AnalyzerPlanFirst)
	wantFindings(t, got,
		"internal/query/q.go:14:[planfirst]",
		"internal/query/q.go:19:[planfirst]")
}

func TestPlanFirstAllowsTheReadSite(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/query/q.go": planfirstFixtureSource + `
func stream(ctx context.Context, src Source, ns string, rows []int32) error {
	if rows == nil {
		return src.ReadRecords(ctx, ns, nil, func(Record) error { return nil })
	}
	return src.ReadRows(ctx, ns, rows, nil, func(Record) error { return nil })
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerPlanFirst))
}

func TestPlanFirstIgnoresOtherPackagesAndUnrelatedNames(t *testing.T) {
	m := writeModule(t, map[string]string{
		// Outside the query packages the discipline does not apply.
		"internal/core/c.go": `package core

import "context"

type reader interface {
	ReadRecords(ctx context.Context, ns string, fn func() error) error
}

func drain(ctx context.Context, r reader) error {
	return r.ReadRecords(ctx, "x", func() error { return nil })
}
`,
		// A package-level function that merely shares the name is fine.
		"internal/query/q.go": `package query

import "context"

func helper(ctx context.Context) error { return ReadRecords(ctx) }

func ReadRecords(ctx context.Context) error { return nil }
`,
	})
	wantFindings(t, findings(t, m, AnalyzerPlanFirst))
}

func TestPlanFirstSuppressionWithReason(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/query/q.go": planfirstFixtureSource + `
func probe(ctx context.Context, src Source) error {
	//lint:ignore planfirst namespace existence probe; looks at no record
	return src.ReadRecords(ctx, "x", nil, func(Record) error { return nil })
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerPlanFirst))
}
