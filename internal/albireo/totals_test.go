package albireo_test

import (
	"reflect"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/workload"
)

// TestTotalsOnlyMatchesFullEvaluation pins NetOptions.TotalsOnly to the
// full evaluation: the same per-layer outcomes and the same total scalars,
// with the total's ledgers left empty and same-shaped layers sharing one
// Best, from a shared cache and from none.
func TestTotalsOnlyMatchesFullEvaluation(t *testing.T) {
	cfg := albireo.Default(albireo.Conservative)
	for _, tc := range []struct {
		net   workload.Network
		fused bool
		cache *mapper.Cache
	}{
		{workload.ResNet18(1), false, nil},
		{workload.ResNet18(1), true, mapper.NewCache()},
		{workload.VGG16(1), false, mapper.NewCache()},
	} {
		opts := albireo.NetOptions{Batch: 2, Fused: tc.fused,
			Mapper: mapper.Options{Budget: 40, Seed: 3, Workers: 1, Cache: tc.cache}}
		full, err := albireo.EvalNetwork(cfg, tc.net, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.TotalsOnly = true
		totals, err := albireo.EvalNetwork(cfg, tc.net, opts)
		if err != nil {
			t.Fatal(err)
		}
		name := tc.net.Name
		if totals.Total.Energy != nil || totals.Total.Usage != nil {
			t.Errorf("%s: TotalsOnly total carries a ledger", name)
		}
		want := full.Total
		want.Energy, want.Usage = nil, nil
		if !reflect.DeepEqual(totals.Total, want) {
			t.Errorf("%s: TotalsOnly total = %+v, want %+v", name, totals.Total, want)
		}
		if len(totals.Layers) != len(full.Layers) {
			t.Fatalf("%s: %d layers, want %d", name, len(totals.Layers), len(full.Layers))
		}
		shared := map[uint64]*mapper.Best{}
		for i, le := range totals.Layers {
			fl := full.Layers[i]
			if le.Layer.Name != fl.Layer.Name {
				t.Errorf("%s: layer %d is %s, want %s", name, i, le.Layer.Name, fl.Layer.Name)
			}
			got, want := *le.Best.Result, *fl.Best.Result
			got.Layer = want.Layer // a shared Best names the first of its shape
			if !reflect.DeepEqual(got, want) || le.Best.Mapping.Fingerprint() != fl.Best.Mapping.Fingerprint() ||
				le.Best.Evaluations != fl.Best.Evaluations || le.Best.Stats != fl.Best.Stats {
				t.Errorf("%s: layer %s outcome differs under TotalsOnly", name, le.Layer.Name)
			}
			fp := le.Layer.ShapeFingerprint()
			if tc.fused && (i == 0 || i == len(totals.Layers)-1) {
				continue // the end layers run on their own architectures
			}
			if b, ok := shared[fp]; ok && b != le.Best {
				t.Errorf("%s: layer %s has its own copy of a same-shaped layer's Best", name, le.Layer.Name)
			}
			shared[fp] = le.Best
		}
	}
}
