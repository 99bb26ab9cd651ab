// Command app is the fixture's program: what it calls is live.
package main

import "fixture/internal/dead"

func main() {
	var c dead.Counter
	c.Add(dead.Called())
	if err := dead.Check(c.Total()); err != nil {
		panic(err)
	}
}
