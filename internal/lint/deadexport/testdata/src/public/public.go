// Package public is not under an internal/ directory: code outside the
// module may call its exported functions.
package public

// API is referenced nowhere in the program.
func API() {}
