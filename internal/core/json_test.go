package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestWorkloadJSONRoundTrip(t *testing.T) {
	in := fft()
	in.HitMass = 0.3
	in.FootprintItems = 12345
	in.ConflictFactor = 2.5
	in.RemoteShare = 0.2
	in.CoherenceMissRate = 0.05
	in.ConflictCurve = []ConflictPoint{{CapacityItems: 64, Kappa: 3}, {CapacityItems: 1024, Kappa: 1.5}}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the workload:\n in: %+v\nout: %+v", in, out)
	}
}

func TestWorkloadJSONSchema(t *testing.T) {
	// A hand-written minimal spec — what a user would actually type.
	spec := `{"name": "my-app", "alpha": 1.4, "beta": 250, "gamma": 0.33,
	          "footprint_items": 4194304}`
	w, err := ReadWorkload(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "my-app" || w.Locality.Alpha != 1.4 || w.FootprintItems != 1<<22 {
		t.Errorf("decoded %+v", w)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// The decoded workload evaluates.
	cfg := uniproc(256<<10, 64<<20)
	if _, err := Evaluate(cfg, w, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"name": "x", "alpha": 0.9, "beta": 100, "gamma": 0.3}`, // alpha <= 1
		`{"name": "x", "alpha": 1.4, "beta": -5, "gamma": 0.3}`,  // beta <= 0
		`{"name": "x", "alpha": 1.4, "beta": 100, "gamma": 0}`,   // no references
		`{"name": "x", "alpha": 1.4, "beta": 100, "gamma": 0.3, "remote_share": 2}`,
		`not json at all`,
	}
	for _, c := range cases {
		if _, err := ReadWorkload(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}
