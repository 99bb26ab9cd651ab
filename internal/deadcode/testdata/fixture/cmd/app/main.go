// Command app is the fixture's program: what it calls is live.
package main

import (
	"encoding/json"
	"flag"

	"fixture/internal/dead"
)

func main() {
	var c dead.Counter
	c.Add(dead.Called())
	cfg := dead.Config{Width: 2, Scale: 1.5}
	if err := dead.Check(c.Total() + int(cfg.Resolve())); err != nil {
		panic(err)
	}
	o := dead.DefaultOptions()
	o.Set = 1
	flag.IntVar(&o.Flagged, "flagged", 0, "")
	var w dead.WireConfig
	if err := json.Unmarshal([]byte(`{"Port":1}`), &w); err != nil {
		panic(err)
	}
	_ = o.Set + o.Flagged + o.Kept + o.Filled + o.OnlyTests + w.Port + w.Limits.Max
}
