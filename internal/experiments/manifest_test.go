package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	mreg "overlaymatch/internal/metrics"
)

// TestTablesUnchangedByMetrics: the rendered tables must be
// byte-identical with and without a sink registry attached — the
// EXPERIMENTS.md acceptance condition for the observability layer.
func TestTablesUnchangedByMetrics(t *testing.T) {
	for _, id := range []string{"E5", "E6", "E11", "E14"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var plain, instrumented bytes.Buffer
		if _, err := RunAndRender(e, Config{Seed: 1, Quick: true}, &plain, false, ""); err != nil {
			t.Fatalf("%s plain: %v", id, err)
		}
		sink := mreg.New()
		if _, err := RunAndRender(e, Config{Seed: 1, Quick: true, Metrics: sink}, &instrumented, false, ""); err != nil {
			t.Fatalf("%s instrumented: %v", id, err)
		}
		if !bytes.Equal(plain.Bytes(), instrumented.Bytes()) {
			t.Fatalf("%s: tables differ with metrics attached", id)
		}
		if len(sink.Snapshot().Samples) == 0 {
			t.Fatalf("%s: sink registry stayed empty", id)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	cfg := Config{Seed: 9, Quick: true, Metrics: mreg.New()}
	e, _ := Lookup("E6")
	if _, err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	m := NewManifest(cfg)
	m.Record(e, 1500*time.Microsecond)
	var buf bytes.Buffer
	if err := m.Write(&buf, cfg.Metrics); err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if got.Seed != 9 || !got.Quick || got.GoVersion == "" {
		t.Fatalf("manifest fields wrong: %+v", got)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].ID != "E6" || got.Experiments[0].WallMS != 1.5 {
		t.Fatalf("experiment meta wrong: %+v", got.Experiments)
	}
	var snap map[string]any
	if err := json.Unmarshal(got.Metrics, &snap); err != nil {
		t.Fatalf("embedded metrics invalid: %v", err)
	}
	if _, ok := snap["simnet_deliveries_total"]; !ok {
		t.Fatal("embedded metrics missing simnet_deliveries_total")
	}
}

func TestManifestWithoutRegistry(t *testing.T) {
	m := NewManifest(Config{Seed: 1})
	var buf bytes.Buffer
	if err := m.Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["metrics"] != nil {
		t.Fatalf("metrics should be null, got %v", got["metrics"])
	}
}

// TestManifestNamesEveryConfigField: the run manifest records every
// Config field but the Metrics sink, under the same name and with the
// same value, so a manifest names every parameter that shapes a table
// and a Config field cannot be added without its provenance.
func TestManifestNamesEveryConfigField(t *testing.T) {
	cfg := Config{Seed: 7, Quick: true, Workers: 3}
	c := reflect.ValueOf(cfg)
	m := reflect.ValueOf(*NewManifest(cfg))
	for i := 0; i < c.NumField(); i++ {
		name := c.Type().Field(i).Name
		if name == "Metrics" {
			continue
		}
		got := m.FieldByName(name)
		if !got.IsValid() {
			t.Errorf("Config.%s is not recorded in the manifest", name)
			continue
		}
		if want := c.Field(i).Interface(); !reflect.DeepEqual(got.Interface(), want) {
			t.Errorf("manifest records %s = %v, want %v", name, got.Interface(), want)
		}
	}
}
