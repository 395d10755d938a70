// Package helpertest is a test helper under internal/: its callers are
// tests, so its exported functions are exempt.
package helpertest

// Run is called only from tests.
func Run() {}
