package traces

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzTraceRead feeds Read arbitrary bytes. It must never panic, and
// whatever it accepts must reach a fixpoint: writing the parsed trace and
// reading it back gives the same events, and writing those gives the same
// bytes.
func FuzzTraceRead(f *testing.F) {
	small, err := os.ReadFile("testdata/tracegen-small.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	for _, s := range []string{
		"", "# comment only\n", "\n  \n", "100 1\n200 2", "  +0007\t3  \n# x\n9 -1\n",
		"1 2 3\n", "x 1\n", "1 y\n", "9223372036854775808 1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, events); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%q", err, first.Bytes())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("Write→Read changed the trace:\n got %v\nwant %v", again, events)
		}
		var second bytes.Buffer
		if err := Write(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write→Read→Write is not a fixpoint:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
