package predict

import (
	"math"
	"math/rand"
	"testing"
)

// separableDataset builds labels driven by feature 0 (strong), feature 1
// (weak), with feature 2 pure noise.
func separableDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Names: []string{"strong", "weak", "noise"}}
	for i := 0; i < n; i++ {
		strong := rng.NormFloat64()
		weak := rng.NormFloat64()
		noise := rng.NormFloat64()
		z := 2.5*strong + 0.7*weak
		p := 1 / (1 + math.Exp(-z))
		d.X = append(d.X, []float64{strong, weak, noise})
		d.Y = append(d.Y, rng.Float64() < p)
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{Names: []string{"a"}, X: [][]float64{{1}}, Y: []bool{true, false}}
	if err := d.Validate(); err == nil {
		t.Error("row/label mismatch not rejected")
	}
	d = &Dataset{Names: []string{"a", "b"}, X: [][]float64{{1}}, Y: []bool{true}}
	if err := d.Validate(); err == nil {
		t.Error("row width mismatch not rejected")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(&Dataset{}, TrainOptions{}); err == nil {
		t.Error("empty dataset not rejected")
	}
}

func TestTrainRecoverSignal(t *testing.T) {
	d := separableDataset(3000, 1)
	m, err := Train(d, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The strong feature must carry the largest weight, the noise the
	// smallest.
	abs := func(v float64) float64 { return math.Abs(v) }
	if abs(m.Weights[0]) <= abs(m.Weights[1]) {
		t.Errorf("strong weight %g not above weak %g", m.Weights[0], m.Weights[1])
	}
	if abs(m.Weights[2]) >= abs(m.Weights[1]) {
		t.Errorf("noise weight %g not below weak %g", m.Weights[2], m.Weights[1])
	}
	auc := AUC(m.ScoreAll(d), d.Y)
	if auc < 0.85 {
		t.Errorf("train AUC = %.3f", auc)
	}
}

func TestTrainGeneralizes(t *testing.T) {
	d := separableDataset(4000, 2)
	rng := rand.New(rand.NewSource(3))
	trainIdx, testIdx := Split(rng, len(d.X), 0.25)
	m, err := Train(d.Subset(trainIdx), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	test := d.Subset(testIdx)
	auc := AUC(m.ScoreAll(test), test.Y)
	if auc < 0.85 {
		t.Errorf("test AUC = %.3f", auc)
	}
	acc := Accuracy(m.ScoreAll(test), test.Y, 0.5)
	if acc < 0.75 {
		t.Errorf("test accuracy = %.3f", acc)
	}
}

func TestConstantColumnHandled(t *testing.T) {
	d := &Dataset{Names: []string{"const", "signal"}}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		s := rng.NormFloat64()
		d.X = append(d.X, []float64{7, s})
		d.Y = append(d.Y, s > 0)
	}
	m, err := Train(d, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.Weights[0]) || math.IsNaN(m.Weights[1]) {
		t.Fatal("NaN weights with constant column")
	}
	if auc := AUC(m.ScoreAll(d), d.Y); auc < 0.95 {
		t.Errorf("AUC = %.3f", auc)
	}
}

func TestAUCProperties(t *testing.T) {
	// Perfect ranking.
	if auc := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []bool{false, false, true, true}); auc != 1 {
		t.Errorf("perfect AUC = %g", auc)
	}
	// Inverted ranking.
	if auc := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []bool{false, false, true, true}); auc != 0 {
		t.Errorf("inverted AUC = %g", auc)
	}
	// All ties: 0.5.
	if auc := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []bool{false, true, false, true}); auc != 0.5 {
		t.Errorf("tied AUC = %g", auc)
	}
	// Single class: 0.5 by convention.
	if auc := AUC([]float64{0.1, 0.9}, []bool{true, true}); auc != 0.5 {
		t.Errorf("single-class AUC = %g", auc)
	}
}

func TestAccuracy(t *testing.T) {
	if acc := Accuracy(nil, nil, 0.5); acc != 0 {
		t.Errorf("empty accuracy = %g", acc)
	}
	acc := Accuracy([]float64{0.9, 0.4, 0.6, 0.1}, []bool{true, false, false, true}, 0.5)
	if acc != 0.5 {
		t.Errorf("accuracy = %g", acc)
	}
}

func TestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train, test := Split(rng, 100, 0.25)
	if len(test) != 25 || len(train) != 75 {
		t.Fatalf("split = %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatal("index duplicated across split")
		}
		seen[i] = true
	}
	// Tiny n still yields one test row.
	_, test = Split(rng, 2, 0.01)
	if len(test) != 1 {
		t.Fatalf("tiny test size = %d", len(test))
	}
}

func TestSelectAndSubset(t *testing.T) {
	d := &Dataset{
		Names: []string{"a", "b", "c"},
		X:     [][]float64{{1, 2, 3}, {4, 5, 6}},
		Y:     []bool{true, false},
	}
	v := d.subset([]int{2, 0})
	if v.Names[0] != "c" || v.Names[1] != "a" {
		t.Fatalf("names = %v", v.Names)
	}
	if v.X[1][0] != 6 || v.X[1][1] != 4 {
		t.Fatalf("rows = %v", v.X)
	}
	s := d.Subset([]int{1})
	if len(s.X) != 1 || s.X[0][0] != 4 || s.Y[0] != false {
		t.Fatalf("subset = %+v", s)
	}
}

func TestForwardSelectFindsSignal(t *testing.T) {
	d := separableDataset(2500, 6)
	cols, auc, err := ForwardSelect(d, 3, 0.005, 7, TrainOptions{Iterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) == 0 {
		t.Fatal("nothing selected")
	}
	if cols[0] != 0 {
		t.Errorf("first selected = %s, want strong", d.Names[cols[0]])
	}
	for _, c := range cols {
		if c == 2 {
			t.Error("noise feature selected")
		}
	}
	if auc < 0.85 {
		t.Errorf("selected AUC = %.3f", auc)
	}
}

func TestCrossValidate(t *testing.T) {
	d := separableDataset(2000, 9)
	mean, sd, err := CrossValidate(d, 5, 9, TrainOptions{Iterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0.85 {
		t.Errorf("CV mean AUC = %.3f", mean)
	}
	if sd < 0 || sd > 0.2 {
		t.Errorf("CV sd = %.3f", sd)
	}
	if _, _, err := CrossValidate(d, 1, 9, TrainOptions{}); err == nil {
		t.Error("folds=1 accepted")
	}
	tiny := &Dataset{Names: []string{"x"}, X: [][]float64{{1}}, Y: []bool{true}}
	if _, _, err := CrossValidate(tiny, 5, 9, TrainOptions{}); err == nil {
		t.Error("too-small dataset accepted")
	}
}
