package dead

import "testing"

// A test's calls and reads do not count: Dead and hits stay reported.
func TestDead(t *testing.T) {
	c := &Counter{}
	c.Add(Dead())
	if c.hits != 1 {
		t.Fatal(c.hits)
	}
}
