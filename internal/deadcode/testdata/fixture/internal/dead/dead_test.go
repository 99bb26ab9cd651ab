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

// A test's stores do not count: OnlyTests stays reported.
func TestOptions(t *testing.T) {
	o := DefaultOptions()
	o.OnlyTests = 1
	if o.OnlyTests+o.Filled != 5 {
		t.Fatal(o)
	}
}
