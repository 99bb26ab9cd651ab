// Package dead plants the faults the guard exists to report, beside code it
// must let pass.
package dead

// Dead has no caller but the package's test: the guard reports it.
func Dead() int { return 1 }

// Called has a caller in the program, so an allowlist entry for it is stale.
func Called() int { return 2 }

// Kept has no caller, but an allowlist entry gives the reason it stays.
func Kept() int { return 3 }

// Counter's hits is written and never read: the guard reports it. Its
// total is read, by Total.
type Counter struct {
	hits  int
	total int
}

// Add counts one addition of n.
func (c *Counter) Add(n int) {
	c.hits++
	c.total += n
}

// Total is the sum of what Add was given.
func (c *Counter) Total() int { return c.total }

// failure's Error has no direct caller, but it implements error.
type failure struct{}

func (failure) Error() string { return "failure" }

// Check returns a failure when n is negative.
func Check(n int) error {
	if n < 0 {
		return failure{}
	}
	return nil
}
