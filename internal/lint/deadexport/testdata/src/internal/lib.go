// Package lib sits under an internal/ directory: every exported function
// here needs a reference from a loaded file.
package lib

// Unused is referenced nowhere.
func Unused() int { return 1 } // want "exported function lib\.Unused has no non-test reference"

// Used is called by helper below.
func Used() int { return 2 }

// Recurse only calls itself, which does not count.
func Recurse(n int) int { // want "exported function lib\.Recurse has no non-test reference"
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Double is generic and called through an inferred instantiation.
func Double[T ~int | ~float64](x T) T { return 2 * x }

// Keys is generic and never instantiated.
func Keys[K comparable, V any](m map[K]V) []K { // want "exported function lib\.Keys has no non-test reference"
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Kept has a caller outside the program.
//
//chc:allow deadexport -- called by a separate module
func Kept() {}

// T's method is out of scope: methods may be live through interfaces.
type T struct{}

// Method is never called.
func (T) Method() {}

// unexported functions are out of scope.
func helper() int { return Used() + int(Double(3.0)) + Double(4) }
