// Package predict implements the paper's Section 7 prediction agenda:
// "use characteristics such as node degree, connectivity, and measures of
// centrality ... to predict the success or failure of a startup", with
// "feature selection methods for high-dimensional regression".
//
// It provides L2-regularized logistic regression trained by batch
// gradient descent on standardized features, greedy forward feature
// selection scored by validation AUC, and the evaluation utilities
// (train/test split, AUC, accuracy). Everything is deterministic given
// the seed.
package predict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dataset is a design matrix with named feature columns and binary
// labels.
type Dataset struct {
	Names []string
	X     [][]float64 // X[i] is row i, len == len(Names)
	Y     []bool
}

// Validate checks shape consistency.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("predict: %d rows but %d labels", len(d.X), len(d.Y))
	}
	for i, row := range d.X {
		if len(row) != len(d.Names) {
			return fmt.Errorf("predict: row %d has %d features, want %d", i, len(row), len(d.Names))
		}
	}
	return nil
}

// subset returns a view of the dataset restricted to the given feature
// column indices.
func (d *Dataset) subset(cols []int) *Dataset {
	nd := &Dataset{Y: d.Y}
	for _, c := range cols {
		nd.Names = append(nd.Names, d.Names[c])
	}
	nd.X = make([][]float64, len(d.X))
	for i, row := range d.X {
		r := make([]float64, len(cols))
		for j, c := range cols {
			r[j] = row[c]
		}
		nd.X[i] = r
	}
	return nd
}

// TrainOptions configures logistic-regression training.
type TrainOptions struct {
	// LearningRate for batch gradient descent; default 0.5.
	LearningRate float64
	// Iterations of full-batch descent; default 300.
	Iterations int
	// L2 regularization strength; default 1e-3.
	L2 float64
}

func (o *TrainOptions) fill() {
	if o.LearningRate <= 0 {
		o.LearningRate = 0.5
	}
	if o.Iterations <= 0 {
		o.Iterations = 300
	}
	if o.L2 < 0 {
		o.L2 = 0
	} else if o.L2 == 0 {
		o.L2 = 1e-3
	}
}

// Model is a trained logistic-regression classifier. Feature
// standardization learned at training time is applied inside Score.
type Model struct {
	Names   []string
	Bias    float64
	Weights []float64
	means   []float64
	scales  []float64
}

// Train fits a logistic regression to the dataset.
func Train(d *Dataset, opts TrainOptions) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.X) == 0 {
		return nil, errors.New("predict: empty dataset")
	}
	opts.fill()
	n := len(d.X)
	k := len(d.Names)

	// Standardize columns to zero mean, unit variance.
	means := make([]float64, k)
	scales := make([]float64, k)
	for j := 0; j < k; j++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.X[i][j]
		}
		means[j] = sum / float64(n)
		var ss float64
		for i := 0; i < n; i++ {
			dv := d.X[i][j] - means[j]
			ss += dv * dv
		}
		scales[j] = math.Sqrt(ss / float64(n))
		if scales[j] < 1e-12 {
			scales[j] = 1 // constant column: contributes nothing after centering
		}
	}
	std := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		for j := 0; j < k; j++ {
			row[j] = (d.X[i][j] - means[j]) / scales[j]
		}
		std[i] = row
	}

	w := make([]float64, k)
	var bias float64
	grad := make([]float64, k)
	for it := 0; it < opts.Iterations; it++ {
		for j := range grad {
			grad[j] = 0
		}
		var gBias float64
		for i := 0; i < n; i++ {
			z := bias
			for j := 0; j < k; j++ {
				z += w[j] * std[i][j]
			}
			p := sigmoid(z)
			y := 0.0
			if d.Y[i] {
				y = 1
			}
			e := p - y
			gBias += e
			for j := 0; j < k; j++ {
				grad[j] += e * std[i][j]
			}
		}
		inv := 1 / float64(n)
		bias -= opts.LearningRate * gBias * inv
		for j := 0; j < k; j++ {
			w[j] -= opts.LearningRate * (grad[j]*inv + opts.L2*w[j])
		}
	}
	return &Model{
		Names:   append([]string(nil), d.Names...),
		Bias:    bias,
		Weights: w,
		means:   means,
		scales:  scales,
	}, nil
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// score returns the predicted success probability for a raw (unscaled)
// feature row.
func (m *Model) score(row []float64) float64 {
	z := m.Bias
	for j, v := range row {
		z += m.Weights[j] * (v - m.means[j]) / m.scales[j]
	}
	return sigmoid(z)
}

// ScoreAll scores every row of a dataset.
func (m *Model) ScoreAll(d *Dataset) []float64 {
	out := make([]float64, len(d.X))
	for i, row := range d.X {
		out[i] = m.score(row)
	}
	return out
}

// AUC computes the area under the ROC curve by the rank (Mann–Whitney)
// method with tie correction. Returns 0.5 when a class is absent.
func AUC(scores []float64, labels []bool) float64 {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	var pos, neg float64
	var rankSum float64
	i := 0
	rank := 1.0
	for i < n {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avg := (rank + rank + float64(j-i)) / 2
		for k := i; k <= j; k++ {
			if labels[idx[k]] {
				rankSum += avg
			}
		}
		rank += float64(j - i + 1)
		i = j + 1
	}
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	return (rankSum - pos*(pos+1)/2) / (pos * neg)
}

// Accuracy returns the fraction of correct predictions at the given
// probability threshold.
func Accuracy(scores []float64, labels []bool, threshold float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	correct := 0
	for i, s := range scores {
		if (s >= threshold) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(scores))
}

// Split partitions row indices into train and test sets with the given
// test fraction, shuffled deterministically.
func Split(rng *rand.Rand, n int, testFrac float64) (train, test []int) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(float64(n) * testFrac)
	if cut < 1 && n > 1 {
		cut = 1
	}
	return idx[cut:], idx[:cut]
}

// Subset extracts the rows at the given indices.
func (d *Dataset) Subset(rows []int) *Dataset {
	nd := &Dataset{Names: d.Names}
	for _, i := range rows {
		nd.X = append(nd.X, d.X[i])
		nd.Y = append(nd.Y, d.Y[i])
	}
	return nd
}

// ForwardSelect greedily adds the feature that most improves validation
// AUC, stopping when no candidate improves it by at least minGain or
// maxFeatures is reached. It returns the selected column indices in
// selection order and the final validation AUC.
func ForwardSelect(d *Dataset, maxFeatures int, minGain float64, seed int64, opts TrainOptions) ([]int, float64, error) {
	if err := d.Validate(); err != nil {
		return nil, 0, err
	}
	if maxFeatures <= 0 || maxFeatures > len(d.Names) {
		maxFeatures = len(d.Names)
	}
	rng := rand.New(rand.NewSource(seed))
	trainIdx, valIdx := Split(rng, len(d.X), 0.3)
	var selected []int
	bestAUC := 0.5
	for len(selected) < maxFeatures {
		bestCand, bestCandAUC := -1, bestAUC
		for c := 0; c < len(d.Names); c++ {
			if contains(selected, c) {
				continue
			}
			cols := append(append([]int(nil), selected...), c)
			view := d.subset(cols)
			m, err := Train(view.Subset(trainIdx), opts)
			if err != nil {
				return nil, 0, err
			}
			val := view.Subset(valIdx)
			auc := AUC(m.ScoreAll(val), val.Y)
			if auc > bestCandAUC+1e-12 {
				bestCand, bestCandAUC = c, auc
			}
		}
		if bestCand < 0 || bestCandAUC-bestAUC < minGain {
			break
		}
		selected = append(selected, bestCand)
		bestAUC = bestCandAUC
	}
	return selected, bestAUC, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// CrossValidate runs k-fold cross-validation and returns the mean and
// standard deviation of the per-fold test AUC — the robust version of a
// single split for small funded classes.
func CrossValidate(d *Dataset, folds int, seed int64, opts TrainOptions) (meanAUC, sdAUC float64, err error) {
	if err := d.Validate(); err != nil {
		return 0, 0, err
	}
	if folds < 2 {
		return 0, 0, errors.New("predict: need at least 2 folds")
	}
	n := len(d.X)
	if n < folds {
		return 0, 0, fmt.Errorf("predict: %d rows cannot fill %d folds", n, folds)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })

	var aucs []float64
	for f := 0; f < folds; f++ {
		lo := f * n / folds
		hi := (f + 1) * n / folds
		test := idx[lo:hi]
		train := append(append([]int(nil), idx[:lo]...), idx[hi:]...)
		m, err := Train(d.Subset(train), opts)
		if err != nil {
			return 0, 0, err
		}
		td := d.Subset(test)
		aucs = append(aucs, AUC(m.ScoreAll(td), td.Y))
	}
	var sum float64
	for _, a := range aucs {
		sum += a
	}
	meanAUC = sum / float64(len(aucs))
	var ss float64
	for _, a := range aucs {
		dlt := a - meanAUC
		ss += dlt * dlt
	}
	sdAUC = math.Sqrt(ss / float64(len(aucs)-1))
	return meanAUC, sdAUC, nil
}
