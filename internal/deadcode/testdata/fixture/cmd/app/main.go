// Command app is the fixture's program: what it calls is live.
package main

import "fixture/internal/dead"

func main() {
	var c dead.Counter
	c.Add(dead.Called())
	cfg := dead.Config{Width: 2}
	if err := dead.Check(c.Total() + int(cfg.Resolve())); err != nil {
		panic(err)
	}
}
