package routing

// Test-only hooks for the external routing_test package.
var (
	DiffMinDegreeOracle  = diffMinDegreeOracle
	DiffSharedTreeOracle = diffSharedTreeOracle
)
