package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"crowdscope/internal/ecosystem"
)

// runGen generates a synthetic crowdfunding world and prints its
// ground-truth summary; with -out it also writes the raw entities to
// that directory as JSON for inspection.
func runGen(_ context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("gen", "seed", "scale", "out")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := ecosystem.Generate(ecosystem.NewConfig(o.seed, o.scale))
	if err != nil {
		return err
	}
	gt := w.Summarize()
	fmt.Fprintf(stdout, "world generated: seed=%d scale=%g\n", o.seed, o.scale)
	fmt.Fprintf(stdout, "  startups                 %d\n", gt.Startups)
	fmt.Fprintf(stdout, "  users                    %d\n", gt.Users)
	fmt.Fprintf(stdout, "  investors / founders / employees  %d / %d / %d\n", gt.Investors, gt.Founders, gt.Employees)
	fmt.Fprintf(stdout, "  facebook / twitter / both / none  %d / %d / %d / %d\n", gt.WithFacebook, gt.WithTwitter, gt.WithBoth, gt.WithNeither)
	fmt.Fprintf(stdout, "  demo videos              %d\n", gt.WithVideo)
	fmt.Fprintf(stdout, "  funded companies         %d\n", gt.Successful)
	fmt.Fprintf(stdout, "  crunchbase entries       %d\n", gt.CrunchBaseEntries)
	fmt.Fprintf(stdout, "  investing investors      %d (mean %.2f, median %.0f, max %d investments)\n",
		gt.InvestingInvestors, gt.MeanInvestments, gt.MedianInvestments, gt.MaxInvestments)
	fmt.Fprintf(stdout, "  investment edges         %d over %d companies (%.2f investors/company)\n",
		gt.InvestmentEdges, gt.InvestedCompanies, gt.MeanInvestorsPerCo)
	fmt.Fprintf(stdout, "  planted communities      %d\n", len(w.Communities))
	fmt.Fprintf(stdout, "  planted syndicates       %d\n", gt.Syndicates)
	if o.out == "" {
		return nil
	}
	for _, e := range []struct {
		name string
		v    any
	}{
		{"startups.json", w.Startups},
		{"users.json", w.Users},
		{"crunchbase.json", w.CrunchBase},
		{"facebook.json", w.Facebook},
		{"twitter.json", w.Twitter},
	} {
		err := writeFile(o.out, e.name, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(e.v)
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "entities written to %s\n", o.out)
	return nil
}
