package metrics_test

import (
	"fmt"

	"crowdscope/internal/graph"
	"crowdscope/internal/metrics"
)

// ExampleAvgSharedSize reproduces the paper's Figure 8a toy computation:
// three investors whose pairwise shared investment sizes are 2, 2 and 1,
// averaging 1.67.
func ExampleAvgSharedSize() {
	b, err := graph.FromRows([]graph.AdjacencyRow{
		{Left: "investor1", Rights: []string{"companyA", "companyB", "companyC"}},
		{Left: "investor2", Rights: []string{"companyA", "companyB"}},
		{Left: "investor3", Rights: []string{"companyB", "companyC"}},
	})
	if err != nil {
		panic(err)
	}

	members := []int32{0, 1, 2}
	fmt.Printf("avg shared size: %.2f\n", metrics.AvgSharedSize(b, members))
	fmt.Printf("companies with >=2 shared investors: %.0f%%\n", metrics.SharedCompanyPct(b, members, 2))
	// Output:
	// avg shared size: 1.67
	// companies with >=2 shared investors: 100%
}
