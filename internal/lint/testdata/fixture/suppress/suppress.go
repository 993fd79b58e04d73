// Package suppress exercises //lint:ignore handling: reasoned
// suppressions silence the named analyzer on their own line and the line
// below; bare suppressions are themselves findings. TestSuppressions
// asserts the exact outcome (this package is not part of TestFixtures
// because its diagnostics come from the driver, not one analyzer).
package suppress

import "context"

// covered is silenced by a reasoned lead-in suppression.
func covered() context.Context {
	//lint:ignore ctxflow fixture exercises lead-in suppression
	return context.Background()
}

// sameLine is silenced by a trailing comment on the offending line.
func sameLine() context.Context {
	return context.TODO() //lint:ignore ctxflow fixture exercises same-line suppression
}

// multi names several analyzers in one comment.
func multi() context.Context {
	//lint:ignore ctxflow,errdrop fixture exercises the analyzer list
	return context.Background()
}

// bare lacks a reason, so the suppression itself is the finding and the
// underlying diagnostic survives.
func bare() context.Context {
	//lint:ignore ctxflow
	return context.Background()
}

// wrongAnalyzer suppresses a different analyzer; the ctxflow finding
// stands.
func wrongAnalyzer() context.Context {
	//lint:ignore errdrop this reason names the wrong analyzer
	return context.Background()
}

// unknownAnalyzer names an analyzer the suite does not have (a retired
// one, or one from a newer gislint). The comment is well-formed, so it
// is accepted without a finding of its own, and it silences nothing.
func unknownAnalyzer() context.Context {
	//lint:ignore hotalloc waiver left behind for a retired analyzer
	return context.Background()
}
