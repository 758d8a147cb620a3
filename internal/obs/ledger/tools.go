package ledger

// RegisteredTools is the closed set of CLI commands that append run
// records. Every cmd/ binary except odrl-obs (the observatory reads the
// ledger; it does not write run records about itself) must be listed
// here, and the contract test in this package walks cmd/ to prove the
// registry and the tree never drift apart. Records of tools since deleted
// still parse: a record's tool is a plain string.
func RegisteredTools() []string {
	return []string{
		"odrl",
		"odrl-bench",
		"odrl-run",
		"odrl-vet",
	}
}
