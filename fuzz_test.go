package atk

// FuzzRoundTrip exercises the full stack: lenient-parse arbitrary bytes
// through the complete component registry, then check that whatever
// object came out is stable under the external representation — its
// rendering re-reads strictly, and re-rendering the re-read object
// reproduces the same bytes. Comparing the second and third renderings
// (rather than input vs output) keeps lenient normalization out of the
// property: salvage may legitimately rewrite a damaged input, but a
// document the toolkit itself wrote must round-trip exactly.

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"atk/internal/components"
	"atk/internal/core"
	"atk/internal/datastream"
)

func FuzzRoundTrip(f *testing.F) {
	if sample, err := os.ReadFile("testdata/sample.d"); err == nil {
		f.Add(string(sample))
	}
	f.Add("\\begindata{text,1}\nhello world\n\\enddata{text,1}\n")
	f.Add("\\begindata{text,1}\n\\textstyles\n\\define{bold}\n\\done\nplain\n\\enddata{text,1}\n")
	f.Add("\\begindata{text,1}\n\\begindata{table,2}\ndims 2 2\n\\enddata{table,2}\n\\view{tableview,2}\ntail\n\\enddata{text,1}\n")
	f.Add("\\begindata{mystery,7}\nopaque payload\n\\enddata{mystery,7}\n")
	f.Add("\\begindata{text,1}\ncut off")
	// The escape scheme end to end: non-ASCII runes, tabs, backslash
	// runs, and a logical line over 79 columns split by a continuation.
	f.Add("\\begindata{text,1}\n" +
		"caf\\ue9; \\u3c6; \\u1d518;\ttabs\tand \\\\\\\\\\\\ backslash runs\n" +
		"a logical line longer than 79 columns, wrapped with a continuation \\\n" +
		"backslash onto a second physical line\n" +
		"\\enddata{text,1}\n")

	reg, err := components.StandardRegistry()
	if err != nil {
		f.Fatal(err)
	}

	limits := datastream.Limits{MaxDepth: 64, MaxLineBytes: 1 << 16, MaxPayloadBytes: 1 << 20}
	f.Fuzz(func(t *testing.T, data string) {
		r := datastream.NewReaderOptions(strings.NewReader(data),
			datastream.Options{Mode: datastream.Lenient, Limits: limits})
		obj, err := core.ReadObject(r, reg)
		if err != nil {
			return // no object salvageable (empty input, limit hit, ...)
		}

		var w2 bytes.Buffer
		ds := datastream.NewWriter(&w2)
		if _, err := core.WriteObject(ds, obj); err != nil {
			return // salvaged object not representable (e.g. overlong name)
		}
		if err := ds.Close(); err != nil {
			t.Fatalf("close after write: %v", err)
		}

		obj2, err := core.ReadObject(datastream.NewReader(bytes.NewReader(w2.Bytes())), reg)
		if err != nil {
			t.Fatalf("toolkit output does not re-read strictly: %v\ninput: %q\noutput: %q",
				err, data, w2.String())
		}
		var w3 bytes.Buffer
		ds3 := datastream.NewWriter(&w3)
		if _, err := core.WriteObject(ds3, obj2); err != nil {
			t.Fatalf("re-writing re-read object: %v", err)
		}
		if err := ds3.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w2.Bytes(), w3.Bytes()) {
			t.Fatalf("write/read/write not stable:\nfirst:  %q\nsecond: %q", w2.String(), w3.String())
		}
	})
}
