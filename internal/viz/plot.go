package viz

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one named curve: Y[i] plotted against X[i].
type Series struct {
	Name string
	X, Y []float64
}

// seriesMarks are the glyphs ASCIIPlot assigns to series, in order
// (wrapping when there are more series than glyphs).
const seriesMarks = "*o+x#@"

func checkSeries(series []Series) error {
	if len(series) == 0 {
		return fmt.Errorf("viz: no series to plot")
	}
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("viz: series %q has %d x values for %d y values", s.Name, len(s.X), len(s.Y))
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ASCIIPlot draws the series as a width×height character grid with axis
// ranges and a legend. Each point lands in the cell nearest its scaled
// position; later series overdraw earlier ones where they collide.
func ASCIIPlot(w io.Writer, title string, series []Series, width, height int) error {
	if err := checkSeries(series); err != nil {
		return err
	}
	if width < 2 || height < 2 {
		return fmt.Errorf("viz: plot area %dx%d is too small", width, height)
	}
	minX, maxX, minY, maxY := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for i := range s.X {
			if !finite(s.X[i]) || !finite(s.Y[i]) {
				continue
			}
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
			points++
		}
	}
	if points == 0 {
		return fmt.Errorf("viz: no finite points to plot")
	}
	cell := func(v, lo, hi float64, n int) int {
		if hi <= lo {
			return 0
		}
		return int(math.Round((v - lo) / (hi - lo) * float64(n-1)))
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := seriesMarks[si%len(seriesMarks)]
		for i := range s.X {
			if !finite(s.X[i]) || !finite(s.Y[i]) {
				continue
			}
			grid[height-1-cell(s.Y[i], minY, maxY, height)][cell(s.X[i], minX, maxX, width)] = mark
		}
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, title)
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%.4g", maxY)
		case height - 1:
			label = fmt.Sprintf("%.4g", minY)
		}
		fmt.Fprintf(bw, "%10s |%s\n", label, row)
	}
	fmt.Fprintf(bw, "%10s +%s\n", "", strings.Repeat("-", width))
	lo, hi := fmt.Sprintf("%.4g", minX), fmt.Sprintf("%.4g", maxX)
	fmt.Fprintf(bw, "%10s  %s%*s\n", "", lo, width-len(lo), hi)
	for si, s := range series {
		fmt.Fprintf(bw, "%10s  %c %s\n", "", seriesMarks[si%len(seriesMarks)], s.Name)
	}
	return bw.Flush()
}

// WriteCSV writes the series in long form, one "series,x,y" row per
// point under a header row, with shortest round-trip float formatting.
func WriteCSV(w io.Writer, series []Series) error {
	if err := checkSeries(series); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "x", "y"}); err != nil {
		return fmt.Errorf("viz: write csv: %w", err)
	}
	for _, s := range series {
		for i := range s.X {
			row := []string{s.Name, strconv.FormatFloat(s.X[i], 'g', -1, 64), strconv.FormatFloat(s.Y[i], 'g', -1, 64)}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("viz: write csv: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("viz: write csv: %w", err)
	}
	return nil
}
