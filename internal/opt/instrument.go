package opt

import (
	"time"

	"simcal/internal/opt/surrogate"
)

// timedRegressor wraps a surrogate.Regressor and accumulates the time
// spent inside its scoring passes, so an observed refit can report how
// much of each acquisition solve went to surrogate predictions versus
// scoring logic. It is used from a single goroutine per proposal, so a
// plain accumulator suffices.
type timedRegressor struct {
	surrogate.Regressor
	predict time.Duration
}

// PredictMean and PredictStd implement surrogate.Regressor, timing the
// delegate. The overrides matter: the embedded interface would satisfy
// the method set untimed, and the inner calls may fan out across
// goroutines, so the wrapper times each pass from the outside rather
// than instrumenting per prediction. Both forward to the delegate's own
// passes, so an observed calibration prunes exactly as an unobserved one.
func (t *timedRegressor) PredictMean(X [][]float64, mean, std []float64) {
	start := time.Now()
	t.Regressor.PredictMean(X, mean, std)
	t.predict += time.Since(start)
}

func (t *timedRegressor) PredictStd(need []bool, std []float64) {
	start := time.Now()
	t.Regressor.PredictStd(need, std)
	t.predict += time.Since(start)
}
