package extsched

import (
	"encoding/json"
	"reflect"
	"testing"
)

// fuzzSeeds is the FuzzParseScenario corpus: the cmd/dbsim
// -scenario-example template plus scenarios covering every phase kind
// and event type, valid and invalid.
var fuzzSeeds = []string{
	ExampleScenarioJSON,
	`{"phases":[{"kind":"closed","duration":10,"clients":5,"think_time":0.1}]}`,
	`{"warmup":5,"sample_interval":1,"phases":[
		{"kind":"open","duration":10,"lambda":50,
		 "events":[{"at":2,"set_mpl":4},{"at":3,"set_weights":{"high":2.5}}]},
		{"kind":"ramp","duration":10,"lambda":10,"lambda2":90},
		{"kind":"burst","duration":10,"lambda":40,"burst_factor":2,"burst_period":5}]}`,
	`{"phases":[{"kind":"closed","duration":5,
		"events":[{"at":1,"set_shard_speed":{"shard":1,"speed":0.25}},
		          {"at":2,"set_dispatch":"jsq"},
		          {"at":3,"enable_controller":{"max_throughput_loss":0.05,"reference_throughput":90}},
		          {"at":4,"disable_controller":true}]}]}`,
	`{"phases":[{"kind":"trace","duration":5,
		"trace":{"Source":"x","Records":[{"Arrival":0,"Demand":0.01}]}}]}`,
	`{"phases":[{"kind":"burst","duration":20,"lambda":100,
		"events":[{"at":0,"set_slo":{"class":"high","percentile":95,"target":0.5,"min_observations":40,"margin":0.6}},
		          {"at":1,"set_tenant_deadlines":{"low":2}},
		          {"at":5,"set_tenant_limits":{"high":3,"low":5}},
		          {"at":9,"disable_slo":true},
		          {"at":10,"set_tenant_limits":{}},
		          {"at":11,"set_tenant_deadlines":{"high":0,"low":0}}]}]}`,
	`{"phases":[{"kind":"open","duration":5,"lambda":10,
		"events":[{"at":0,"set_slo":{"target":-1}}]}]}`,
	`{"phases":[{"kind":"open","duration":5,"lambda":10,
		"events":[{"at":0,"set_tenant_limits":{"high":1,"low":0}}]}]}`,
	`{"phases":[{"kind":"open","duration":20,"lambda":100,
		"events":[{"at":2,"shard_fail":3},
		          {"at":5,"shard_add":true},
		          {"at":8,"shard_recover":3},
		          {"at":12,"shard_remove":4}]}]}`,
	`{"phases":[{"kind":"open","duration":30,"lambda":50,
		"churn":{"mtbf":10,"mttr":2,"seed":7}}]}`,
	`{"autoscale":{"min":2,"max":8,"interval":0.5,"high_water":6,
		"low_water":1,"breach_windows":2,"calm_windows":6,"cooldown":1,"mpl_per_shard":3},
		"phases":[{"kind":"ramp","duration":20,"lambda":10,"lambda2":200}]}`,
	`{"autoscale":{"min":8,"max":2},
		"phases":[{"kind":"open","duration":10,"lambda":50}]}`,
	`{"autoscale":{"min":0,"max":4},
		"phases":[{"kind":"open","duration":10,"lambda":50}]}`,
	`{"phases":[{"kind":"open","duration":10,"lambda":50,
		"events":[{"at":1,"set_dispatch":"jsq-d:3"},{"at":2,"set_dispatch":"lwl-d"}]}]}`,
	`{"phases":[{"kind":"open","duration":10,"lambda":50,
		"events":[{"at":1,"set_dispatch":"jsq-d:0"}]}]}`,
	`{"phases":[{"kind":"open","duration":10,"lambda":50,
		"events":[{"at":1,"set_dispatch":"jsq-d:banana"}]}]}`,
	`{"phases":[{"kind":"open","duration":30,"lambda":50,
		"churn":{"mtbf":10,"mttr":-2}}]}`,
	`{"phases":[{"kind":"closed","duration":5,"clients":2,
		"events":[{"at":1,"shard_fail":-1}]}]}`,
	`{"tenants":[
		{"name":"batch","weight":1,"share":0.6},
		{"name":"web","weight":4,"share":0.3,"slo_target":1.5},
		{"name":"api","share":0.1,"size_mean":0.02,"size_c2":4}],
		"fairness":{"strict":true,"min_observations":60,"hysteresis":2,"weights":{"web":8}},
		"phases":[{"kind":"open","duration":20,"lambda":40,
		"events":[{"at":2,"set_weights":{"web":2,"batch":1}},
		          {"at":4,"set_tenant_deadlines":{"batch":3}},
		          {"at":6,"disable_fairness":true},
		          {"at":8,"set_tenant_limits":{"web":3,"batch":1,"api":1}},
		          {"at":10,"set_tenant_limits":{}},
		          {"at":12,"enable_fairness":{"strict":true}}]}]}`,
	`{"phases":[{"kind":"diurnal","duration":40,"lambda":50,
		"diurnal_amp":0.5,"diurnal_period":20}]}`,
	`{"phases":[{"kind":"flash","duration":30,"lambda":40,
		"flash_factor":5,"flash_at":10,"flash_duration":4}]}`,
	`{"tenants":[{"name":"a","share":0.5},{"name":"a","share":0.5}],
		"phases":[{"kind":"open","duration":5,"lambda":10}]}`,
	`{"tenants":[{"name":"a","share":0.9},{"name":"b","share":0.3}],
		"phases":[{"kind":"open","duration":5,"lambda":10}]}`,
	`{"tenants":[{"name":"only","share":1}],
		"phases":[{"kind":"open","duration":5,"lambda":10}]}`,
	`{"fairness":{"strict":true},
		"phases":[{"kind":"open","duration":5,"lambda":10}]}`,
	`{"tenants":[{"name":"a","share":0.5},{"name":"b","share":0.5}],
		"phases":[{"kind":"open","duration":5,"lambda":10,
		"events":[{"at":1,"set_weights":{"ghost":2}}]}]}`,
	`{"phases":[{"kind":"closed","duration":-1}]}`,
	`{"phases":[]}`,
	`not json`,
}

// FuzzParseScenario fuzzes the scenario JSON decoder: whatever the
// bytes, ParseScenario must never panic, and anything it accepts must
// satisfy the contract that shields the executor — Validate passes
// (so the runner accepts it) and the scenario survives a
// marshal/re-parse round trip. Validate's finite-value checks exist
// for exactly this boundary: the engine panics on NaN/Inf event
// times, so nothing non-finite may get through (JSON cannot carry
// NaN, but the API can — TestScenarioValidateRejectsNonFinite pins
// that path).
//
// Seed corpus: fuzzSeeds.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		// Accepted means validated: re-validating must agree, or the
		// executor could be handed a spec Validate would have refused.
		if err := sc.Validate(); err != nil {
			t.Fatalf("ParseScenario accepted a scenario Validate rejects: %v\ninput: %q", err, data)
		}
		// Round trip: the accepted value re-encodes and re-parses.
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("marshal of accepted scenario failed: %v", err)
		}
		if _, err := ParseScenario(enc); err != nil {
			t.Fatalf("re-parse of marshaled scenario failed: %v\nencoded: %s", err, enc)
		}
	})
}

// TestScenarioJSONRoundTrip: every valid fuzz seed (the example
// template first) survives marshal then ParseScenario DeepEqual, so
// every field of the scenario vocabulary carries its JSON tag.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for i, seed := range fuzzSeeds {
		sc, err := ParseScenario([]byte(seed))
		if err != nil {
			continue
		}
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", i, err)
		}
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("seed %d: re-parse: %v\nencoded: %s", i, err, enc)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("seed %d: round trip lost data:\n%+v\nvs\n%+v", i, sc, back)
		}
	}
	if _, err := ParseScenario([]byte(fuzzSeeds[0])); err != nil || fuzzSeeds[0] != ExampleScenarioJSON {
		t.Errorf("the example template must lead the corpus and parse: %v", err)
	}
}
