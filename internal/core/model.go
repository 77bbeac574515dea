package core

import (
	"fmt"
	"sort"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/features"
	"tevot/internal/ml"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// Config controls TEVoT training.
type Config struct {
	// Forest configures the random-forest regressor. The zero value is
	// replaced by the paper's default (10 trees, all features per split).
	Forest ml.ForestConfig
	// History includes the previous input vector x[t-1] in the features.
	// Disabling it yields the TEVoT-NH ablation baseline.
	History bool
}

// DefaultConfig returns the paper's configuration: random forest with 10
// trees, full feature set including computation history.
func DefaultConfig() Config {
	return Config{Forest: ml.DefaultForestConfig(ml.Regression), History: true}
}

// Model is a trained TEVoT predictor for one functional unit. It
// predicts the dynamic delay D[t] from {V, T, x[t], x[t-1]} and derives
// timing errors by comparing the prediction with any clock period — the
// paper's Eq. 2 formulation, reusable across clock speeds without
// retraining. Its predictions walk packed rows (features.PackInto):
// newModel checks once that the forest walks them exactly.
type Model struct {
	FU      circuits.FU
	History bool

	forest *ml.RandomForest
	dim    int
	nbits  int // bit features of the packed layout
}

// newModel wraps a fitted or loaded forest, refusing one that the
// packed walk would not predict exactly.
func newModel(fu circuits.FU, history bool, forest *ml.RandomForest) (*Model, error) {
	m := &Model{FU: fu, History: history, forest: forest, dim: features.Dim, nbits: features.PackedBits}
	if !history {
		m.dim, m.nbits = features.DimNH, features.PackedBitsNH
	}
	if err := forest.CheckPacked(m.nbits); err != nil {
		return nil, fmt.Errorf("core: forest cannot walk packed rows: %w", err)
	}
	return m, nil
}

// Train fits a TEVoT model from one or more characterization traces
// (typically spanning many operating corners, so the model learns the
// condition dependence along with the workload dependence).
func Train(fu circuits.FU, traces []*Trace, cfg Config) (*Model, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: no training traces")
	}
	if cfg.Forest.Trees == 0 {
		cfg.Forest = ml.DefaultForestConfig(ml.Regression)
	}
	cfg.Forest.Tree.Mode = ml.Regression
	nbits := features.PackedBits
	if !cfg.History {
		nbits = features.PackedBitsNH
	}
	total := 0
	for _, tr := range traces {
		if tr.FU != fu {
			return nil, fmt.Errorf("core: trace for %v mixed into %v training", tr.FU, fu)
		}
		total += tr.Cycles()
	}
	// The forest trains on the packed rows its predictions walk: 32
	// bytes a cycle, with the operand bits as bit features.
	endFeat := obs.Time("features.extract")
	rows := make([]ml.PackedRow, total)
	y := make([]float64, 0, total)
	for _, tr := range traces {
		pairs := tr.Stream.Pairs
		for i := 0; i < tr.Cycles(); i++ {
			pack(&rows[len(y)], cfg.History, tr.Corner, pairs[i+1], pairs[i])
			y = append(y, tr.Delays[i])
		}
	}
	endFeat()
	forest := ml.NewRandomForest(cfg.Forest)
	endFit := obs.Time("forest.fit")
	err := forest.FitPacked(rows, nbits, y)
	endFit()
	if err != nil {
		return nil, err
	}
	return newModel(fu, cfg.History, forest)
}

// pack writes the packed row of applying cur after prev at corner, with
// history or without.
func pack(dst *ml.PackedRow, history bool, corner cells.Corner, cur, prev workload.OperandPair) {
	if history {
		features.PackInto(dst, corner, cur, prev)
	} else {
		features.PackNHInto(dst, corner, cur)
	}
}

// PredictDelay estimates the dynamic delay (ps) of applying cur after
// prev at the given corner. For history-free models prev is ignored.
func (m *Model) PredictDelay(corner cells.Corner, cur, prev workload.OperandPair) float64 {
	var row ml.PackedRow
	pack(&row, m.History, corner, cur, prev)
	return m.forest.PredictPacked(row, m.nbits)
}

// PredictError classifies one cycle at clock period tclk (ps): erroneous
// when the predicted delay exceeds the period.
func (m *Model) PredictError(corner cells.Corner, cur, prev workload.OperandPair, tclk float64) bool {
	return m.PredictDelay(corner, cur, prev) > tclk
}

// PredictErrors classifies every cycle of a stream at one clock period.
// Cycle i applies s.Pairs[i+1] after s.Pairs[i]; the result has
// s.Len()-1 entries.
func (m *Model) PredictErrors(corner cells.Corner, s *workload.Stream, tclk float64) ([]bool, error) {
	delays, err := m.PredictDelays(corner, s)
	if err != nil {
		return nil, err
	}
	return errorsAt(make([]bool, 0, len(delays)), delays, tclk), nil
}

// errorsAt appends to dst each delay's verdict at clock period tclk:
// erroneous when the delay exceeds the period.
func errorsAt(dst []bool, delays []float64, tclk float64) []bool {
	for _, d := range delays {
		dst = append(dst, d > tclk)
	}
	return dst
}

// Dim returns the model's float feature-vector width (features.Dim
// with history, features.DimNH without): the row width FillFeatureRows
// fills, and what a hot-reload compares so a model with history never
// replaces one without.
func (m *Model) Dim() int { return m.dim }

// FillFeatureRows fills one float feature row per predicted cycle —
// cycle i applies pairs[i+1] after pairs[i] — at the given corner,
// without predicting. X must hold at least len(pairs)-1 rows of width
// Dim(); row contents are overwritten and nothing is retained or
// allocated. Serving fills packed rows instead (FillPackedRows); this
// float form and PredictRowsInto remain for callers that time the two
// steps over float rows.
func (m *Model) FillFeatureRows(X [][]float64, corner cells.Corner, pairs []workload.OperandPair) error {
	n := len(pairs) - 1
	if n < 1 {
		return fmt.Errorf("core: need at least 2 operand pairs, got %d", len(pairs))
	}
	if len(X) < n {
		return fmt.Errorf("core: scratch holds %d rows, need %d", len(X), n)
	}
	for i := 0; i < n; i++ {
		if len(X[i]) != m.dim {
			return fmt.Errorf("core: scratch row %d has width %d, model wants %d", i, len(X[i]), m.dim)
		}
		if m.History {
			features.VectorInto(X[i], corner, pairs[i+1], pairs[i])
		} else {
			features.VectorNHInto(X[i], corner, pairs[i+1])
		}
	}
	return nil
}

// PredictRowsInto runs the forest over pre-filled float feature rows
// (see FillFeatureRows), writing len(X) delays into dst. It allocates
// nothing; large batches fan out across the forest's internal workers.
// Serving predicts from packed rows instead (PredictPackedInto), with
// identical delays.
func (m *Model) PredictRowsInto(dst []float64, X [][]float64) error {
	if len(dst) < len(X) {
		return fmt.Errorf("core: dst holds %d delays, need %d", len(dst), len(X))
	}
	m.forest.PredictBatchInto(dst[:len(X)], X)
	return nil
}

// FillPackedRows fills one packed row per predicted cycle — cycle i
// applies pairs[i+1] after pairs[i] — at the given corner, without
// predicting. rows must hold at least len(pairs)-1 entries; nothing is
// retained or allocated. Splitting the fill from the forest call lets a
// serving coalescer pack rows from requests at *different* corners into
// one contiguous batch and amortize a single PredictPackedInto over all
// of them.
func (m *Model) FillPackedRows(rows []ml.PackedRow, corner cells.Corner, pairs []workload.OperandPair) error {
	n := len(pairs) - 1
	if n < 1 {
		return fmt.Errorf("core: need at least 2 operand pairs, got %d", len(pairs))
	}
	if len(rows) < n {
		return fmt.Errorf("core: scratch holds %d rows, need %d", len(rows), n)
	}
	for i := range rows[:n] {
		pack(&rows[i], m.History, corner, pairs[i+1], pairs[i])
	}
	return nil
}

// PredictPackedInto runs the forest over pre-filled packed rows (see
// FillPackedRows), writing len(rows) delays into dst. It allocates
// nothing; large batches fan out across the forest's internal workers.
func (m *Model) PredictPackedInto(dst []float64, rows []ml.PackedRow) error {
	if len(dst) < len(rows) {
		return fmt.Errorf("core: dst holds %d delays, need %d", len(dst), len(rows))
	}
	m.forest.PredictPackedInto(dst[:len(rows)], rows, m.nbits)
	return nil
}

// PredictDelays estimates the dynamic delay of every cycle of a stream.
func (m *Model) PredictDelays(corner cells.Corner, s *workload.Stream) ([]float64, error) {
	if s.Len() < 2 {
		return nil, fmt.Errorf("core: stream %q too short", s.Name)
	}
	endFeat := obs.Time("features.extract")
	rows := make([]ml.PackedRow, s.Len()-1)
	for i := range rows {
		pack(&rows[i], m.History, corner, s.Pairs[i+1], s.Pairs[i])
	}
	endFeat()
	endPred := obs.Time("forest.predict")
	out := make([]float64, len(rows))
	m.forest.PredictPackedInto(out, rows, m.nbits)
	endPred()
	return out, nil
}

// featureRows carves n rows of width dim out of one contiguous backing
// array (each row capped so an append cannot bleed into its neighbor).
func featureRows(n, dim int) [][]float64 {
	backing := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// FeatureImportance reports which features drive the model's delay
// predictions: the forest's normalized impurity-decrease importance,
// paired with human-readable names ("x[t].a31", "V", ...). This is the
// interpretability that made the paper choose the random forest.
func (m *Model) FeatureImportance() (names []string, importance []float64) {
	if m.History {
		names = features.Names()
	} else {
		names = features.NamesNH()
	}
	importance = m.forest.Importance()
	if importance == nil {
		importance = make([]float64, len(names))
	}
	return names, importance
}

// TopFeatures returns the k most important features, descending.
func (m *Model) TopFeatures(k int) []string {
	names, imp := m.FeatureImportance()
	type fi struct {
		name string
		v    float64
	}
	all := make([]fi, len(names))
	for i := range names {
		all[i] = fi{names[i], imp[i]}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].name
	}
	return out
}

// TER derives the model's predicted timing-error rate for a stream at a
// corner and clock period — the quantity injected into applications in
// the quality study.
func (m *Model) TER(corner cells.Corner, s *workload.Stream, tclk float64) (float64, error) {
	errs, err := m.PredictErrors(corner, s, tclk)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range errs {
		if e {
			n++
		}
	}
	return float64(n) / float64(len(errs)), nil
}
