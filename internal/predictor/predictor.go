// Package predictor implements the Supplier Predictors of Section 4.3: the
// structures each CMP gateway consults to decide whether the CMP holds the
// requested line in a supplier state (S_G, E, D or T).
//
// Three families are provided, mirroring the paper's taxonomy:
//
//   - Subset (Section 4.3.1): a set-associative cache of supplier-line
//     addresses. No false positives; conflict evictions cause false
//     negatives.
//   - Superset (Section 4.3.2): a counting Bloom filter, optionally
//     augmented with a JETTY-style exclude cache. No false negatives;
//     aliasing causes false positives.
//   - Exact (Section 4.3.3): the Subset structure made exact by
//     downgrading the CMP line whenever its predictor entry is evicted.
//
// A Perfect predictor (used to model Oracle) peeks at actual cache state.
package predictor

import (
	"flexsnoop/internal/cache"
	"flexsnoop/internal/config"
)

// Predictor is the gateway-side supplier predictor interface.
//
// Insert is called when a line enters a supplier state in the CMP; Remove
// when a supplier line is evicted, invalidated or downgraded. For the
// Exact predictor, Insert may demand that the caller downgrade a victim
// line to keep the predictor exact.
type Predictor interface {
	// Predict reports whether the CMP is predicted to hold addr in a
	// supplier state.
	Predict(addr cache.LineAddr) bool

	// Insert trains the predictor with a new supplier line. When
	// mustDowngrade is true the caller must downgrade victim's supplier
	// state in the CMP (Exact only).
	Insert(addr cache.LineAddr) (victim cache.LineAddr, mustDowngrade bool)

	// Remove untrains the predictor when a line leaves supplier state.
	Remove(addr cache.LineAddr)

	// NoteFalsePositive tells the predictor one of its positive
	// predictions was wrong; the Superset predictor uses this to train
	// its exclude cache. Others ignore it.
	NoteFalsePositive(addr cache.LineAddr)

	// Kind identifies the predictor family (for energy accounting and
	// reporting).
	Kind() config.PredictorKind

	// Stats returns cumulative operation counts.
	Stats() Stats
}

// Stats counts predictor operations.
type Stats struct {
	Lookups uint64
	Inserts uint64
	Removes uint64
	// Downgrades counts Exact-predictor conflict evictions that forced a
	// line downgrade.
	Downgrades uint64
	// ExcludeHits counts negative predictions produced by the exclude
	// cache overriding a positive Bloom response.
	ExcludeHits uint64
}

// New builds a predictor from its configuration. PredictorPerfect requires
// the actual supplier-state oracle; pass it as isSupplier. PredictorNone
// returns nil: algorithms that never predict hold no predictor.
//
// nodeLines bounds the distinct lines the node's caches can hold over the
// run, and machineLines those the whole machine can reference. They size
// only the predictor's initial tables, which grow on demand.
func New(cfg config.PredictorConfig, nodeLines, machineLines int, isSupplier func(cache.LineAddr) bool) Predictor {
	switch cfg.Kind {
	case config.PredictorNone:
		return nil
	case config.PredictorSubset:
		return NewSubset(cfg.Entries, cfg.Assoc, nodeLines)
	case config.PredictorSuperset:
		return NewSuperset(cfg.BloomFieldBits, cfg.Entries, cfg.Assoc, cfg.ExcludeCache, nodeLines, machineLines)
	case config.PredictorExact:
		return NewExact(cfg.Entries, cfg.Assoc, nodeLines)
	case config.PredictorPerfect:
		return NewPerfect(isSupplier)
	default:
		panic("predictor: unknown predictor kind")
	}
}

// Accuracy classifies predictions against ground truth, producing the
// true/false positive/negative fractions of Figure 11.
type Accuracy struct {
	TruePos  uint64
	TrueNeg  uint64
	FalsePos uint64
	FalseNeg uint64
}

// Classify records one (prediction, actual) pair.
func (a *Accuracy) Classify(predicted, actual bool) {
	switch {
	case predicted && actual:
		a.TruePos++
	case predicted && !actual:
		a.FalsePos++
	case !predicted && actual:
		a.FalseNeg++
	default:
		a.TrueNeg++
	}
}

// Total returns the number of classified predictions.
func (a *Accuracy) Total() uint64 {
	return a.TruePos + a.TrueNeg + a.FalsePos + a.FalseNeg
}

// Fractions returns (TP, TN, FP, FN) as fractions of the total, or zeros
// when nothing was recorded.
func (a *Accuracy) Fractions() (tp, tn, fp, fn float64) {
	t := float64(a.Total())
	if t == 0 {
		return 0, 0, 0, 0
	}
	return float64(a.TruePos) / t, float64(a.TrueNeg) / t,
		float64(a.FalsePos) / t, float64(a.FalseNeg) / t
}

// Add accumulates another accuracy record into this one.
func (a *Accuracy) Add(b Accuracy) {
	a.TruePos += b.TruePos
	a.TrueNeg += b.TrueNeg
	a.FalsePos += b.FalsePos
	a.FalseNeg += b.FalseNeg
}
