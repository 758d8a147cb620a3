package ledger

// RegisteredTools is the closed set of CLI commands that append run
// records. Every cmd/ binary except odrl-obs (the observatory reads the
// ledger; it does not write run records about itself) must be listed
// here, and the contract test in this package walks cmd/ to prove the
// registry and the tree never drift apart.
func RegisteredTools() []string {
	return []string{
		"odrl",
		"odrl-bench",
		"odrl-run",
		"odrl-verify",
		"odrl-vet",
	}
}

// IsRegisteredTool reports whether name is a ledger-writing CLI.
func IsRegisteredTool(name string) bool {
	for _, t := range RegisteredTools() {
		if t == name {
			return true
		}
	}
	return false
}
