// Package dead plants the faults the guard exists to report, beside code it
// must let pass.
package dead

import "cmp"

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

// Config plants each form of zero-to-default substitution on its exported
// fields. Width is taken literally: a test of it against zero that stores
// nothing is no substitution.
type Config struct {
	Rate  float64
	Limit int
	Tags  []string
	Scale float64
	Name  string
	Seed  uint64
	Width int
}

// Resolve fills c's defaults and returns the scale in force.
func (c *Config) Resolve() float64 {
	if c.Width == 0 {
		return 0
	}
	if c.Rate == 0 {
		c.Rate = 0.5
	}
	if c.Limit <= 0 {
		c.Limit = 8
	}
	if len(c.Tags) == 0 {
		c.Tags = []string{"default"}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	scale := 1.0
	if c.Scale > 0 {
		scale = c.Scale
	}
	c.Name = cmp.Or(c.Name, "unnamed")
	return scale
}

// Options plants the config-field rule's cases. The program sets Set and
// binds Flagged to a flag by address; Kept has an allowlist entry. Filled
// is written only by DefaultOptions, OnlyTests only by the package's test:
// the guard reports both.
type Options struct {
	Set       int
	Flagged   int
	Kept      int
	Filled    int
	OnlyTests int
}

// DefaultOptions returns the options a caller starts from.
func DefaultOptions() Options { return Options{Filled: 4} }

// WireConfig's fields arrive decoded from JSON, its nested Limits' too:
// nothing reports them.
type WireConfig struct {
	Port   int
	Limits struct{ Max int }
}
