package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"photoloop/internal/fidelity"
	"photoloop/internal/mapper"
	"photoloop/internal/presets"
)

// referenceJSON encodes v as the HTTP server did before responses were
// appended directly: a fresh indenting json.Encoder.
func referenceJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// checkEncoding compares EncodeResponseJSON with the reference on one
// response: the same bytes, or the same error with nothing written.
func checkEncoding(t testing.TB, name string, r *EvalResponse) {
	t.Helper()
	want, wantErr := referenceJSON(r)
	var got bytes.Buffer
	err := EncodeResponseJSON(&got, r)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() || got.Len() != 0 {
			t.Errorf("%s: error %v (%d bytes written), want %v and nothing written", name, err, got.Len(), wantErr)
		}
	case err != nil:
		t.Errorf("%s: %v", name, err)
	case !bytes.Equal(got.Bytes(), want):
		t.Errorf("%s: direct encoding differs from encoding/json:\n got %q\nwant %q", name, got.Bytes(), want)
	}
}

// evalNetworks are the networks the eval-serve benchmark requests, each
// with one of its layers for a one-layer request.
var evalNetworks = map[string]string{
	"alexnet": "fc8", "resnet18": "layer2.1.conv1", "vgg16": "fc8",
	"bert_base": "enc1.attn.scores", "gpt2_small": "block1.attn.scores",
}

// TestEncodeEvalResponseMatchesEncoder pins the direct EvalResponse
// encoder to encoding/json on real responses (every preset, the
// benchmark's networks, batch 1 and 4, fidelity on and off, and a
// one-layer request) and on hand-made edge cases.
func TestEncodeEvalResponseMatchesEncoder(t *testing.T) {
	cache := mapper.NewCache()
	for _, p := range presets.Names() {
		for n, layer := range evalNetworks {
			for _, batch := range []int{1, 4} {
				for _, fid := range []*fidelity.Spec{nil, {}} {
					req := EvalRequest{Preset: p, Network: n, Batch: batch, Budget: 20, Seed: 1, Workers: 1, Fidelity: fid}
					if batch == 4 && fid != nil {
						req.Layer = layer
					}
					resp, err := Eval(&req, cache)
					if err != nil {
						t.Fatalf("%s/%s/batch=%d/layer=%q: %v", p, n, batch, req.Layer, err)
					}
					checkEncoding(t, fmt.Sprintf("%s/%s/batch=%d/fidelity=%v/layer=%q", p, n, batch, fid != nil, req.Layer), resp)
				}
			}
		}
	}

	nasty := "a<b>&c\"d\\e\x00\x01\x1f\x7f\b\f\n\r\t\u2028\u2029\u00e9\u20ac\U0001f600\xff\xc3(\xe2\x82" + "z"
	edges := map[string]*EvalResponse{
		"nil layers":   {Arch: "a", Network: "n"},
		"empty layers": {Arch: "a", Network: "n", Layers: []LayerOutcome{}},
		"names":        {Arch: nasty, Network: nasty[3:], Layers: []LayerOutcome{{Layer: nasty}, {Layer: ""}}},
		"zeros":        {AreaUM2: math.Copysign(0, -1), Cycles: 0, EffectiveBits: math.Copysign(0, -1), Layers: []LayerOutcome{{TotalPJ: math.Copysign(0, -1), SNRDB: math.Copysign(0, -1)}}},
	}
	floats := []float64{
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // subnormals
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-7, 1e-10, 123e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.7976931348623157e308,
		0.1, 1.0 / 3, 42, -7.25, 6912, 1e15 + 0.5,
	}
	for i, f := range floats {
		edges[fmt.Sprintf("float %d (%g)", i, f)] = &EvalResponse{
			AreaUM2: f, Cycles: f, TotalPJ: -f, PJPerMAC: f, MACsPerCycle: f, Utilization: f,
			EffectiveBits: f, SNRDB: -f, AccuracyLossPct: f,
			Layers: []LayerOutcome{{TotalPJ: f, PJPerMAC: -f, Cycles: f, MACsPerCycle: f, Utilization: f, EffectiveBits: f, SNRDB: f, AccuracyLossPct: -f}},
		}
	}
	for name, f := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		edges[name+" in a total"] = &EvalResponse{Arch: "a", Cycles: f}
		edges[name+" in an omitempty total"] = &EvalResponse{SNRDB: f}
		edges[name+" in a layer"] = &EvalResponse{Layers: []LayerOutcome{{}, {AccuracyLossPct: f}}}
	}
	edges["ints"] = &EvalResponse{PeakMACsPerCycle: math.MinInt64, MACs: math.MaxInt64, Evaluations: -1, Pruned: 1, DeltaEvals: -2, FullEvals: 3,
		Layers: []LayerOutcome{{MACs: -5, Evaluations: math.MaxInt32, Pruned: -1, FullEvals: 9}}}
	for name, r := range edges {
		checkEncoding(t, name, r)
	}
	// A nil response is no EvalResponse to append; encoding/json writes null.
	checkEncoding(t, "nil response", nil)
}

// TestEncodeEvalResponseCoversEveryField fills every field of an
// EvalResponse and of its layers through reflection, so a field added to
// either struct without a counterpart in appendEvalResponse fails here.
func TestEncodeEvalResponseCoversEveryField(t *testing.T) {
	var fill func(v reflect.Value, seed int)
	fill = func(v reflect.Value, seed int) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			k := seed*100 + i + 1
			switch f.Kind() {
			case reflect.String:
				f.SetString(fmt.Sprintf("field %d", k))
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(k))
			case reflect.Float64:
				f.SetFloat(float64(k) + 0.25)
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 2, 2))
				for j := 0; j < 2; j++ {
					fill(f.Index(j), seed+j+1)
				}
			default:
				t.Fatalf("field %s has kind %s, which the test cannot fill", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	var r EvalResponse
	fill(reflect.ValueOf(&r).Elem(), 0)
	checkEncoding(t, "every field set", &r)
}

// FuzzEncodeEvalResponse compares the direct encoder with encoding/json
// on arbitrary names, floats and counts.
func FuzzEncodeEvalResponse(f *testing.F) {
	f.Add("albireo", "resnet18", "conv1", 1.5e9, 0.25, 1e-7, int64(6912), 3)
	f.Add("<&>", "\u2028", "\xff\x00", math.Copysign(0, -1), 1e21, 5e-324, int64(-1), 0)
	f.Fuzz(func(t *testing.T, arch, network, layer string, x, y, z float64, n int64, k int) {
		r := &EvalResponse{
			Arch: arch, Network: network, AreaUM2: x, PeakMACsPerCycle: n,
			MACs: -n, Cycles: y, TotalPJ: z, PJPerMAC: x * y, MACsPerCycle: y / z, Utilization: z,
			Evaluations: k, EffectiveBits: y, SNRDB: z, AccuracyLossPct: x, Pruned: k, FullEvals: -k,
			Layers: []LayerOutcome{
				{Layer: layer, MACs: n, TotalPJ: x, PJPerMAC: y, Cycles: z, Utilization: x - y, Evaluations: k, SNRDB: x, DeltaEvals: k},
				{Layer: arch + layer, EffectiveBits: z, AccuracyLossPct: y},
			},
		}
		if k%3 == 0 {
			r.Layers = nil
		}
		checkEncoding(t, "fuzzed response", r)
	})
}

// BenchmarkEncodeEvalResponse measures the direct encoding of a repeat
// resnet18 response.
func BenchmarkEncodeEvalResponse(b *testing.B) {
	req := EvalRequest{Preset: "albireo", Network: "resnet18", Budget: 20, Seed: 1, Workers: 1}
	resp, err := Eval(&req, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := EncodeResponseJSON(io.Discard, resp); err != nil {
			b.Fatal(err)
		}
	}
}
