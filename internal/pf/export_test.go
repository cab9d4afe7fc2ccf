package pf

// The shadow-lane reference, for the differential tests outside the
// package.
var (
	ReferenceAnalysis = referenceAnalysis
	AnalysisDiff      = analysisDiff
)
