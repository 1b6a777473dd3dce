package scorpion

import "testing"

// CheckFresh fails unless every explanation of res carries what a scorer
// freshly built for req gives it (freshScorer.check). It and the stream
// fixtures below are exported for the external test package, which
// reaches internal/dispatch: that package imports this one, so an
// in-package test cannot.
func CheckFresh(t *testing.T, req *Request, res *Result) {
	t.Helper()
	newFreshScorer(t, req).check(t, res, req.C)
}

var (
	StreamFixture = streamFixture
	StreamBatch   = streamBatch
	StreamRequest = streamRequest
	BuildFrom     = buildFrom
)
