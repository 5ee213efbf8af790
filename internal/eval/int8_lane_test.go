package eval

import (
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
)

// The int8-native lane is an execution strategy, not a different protocol:
// it scores raw quantized rows with tile-local dequantization that is
// bit-identical to expanding the pool first, so for every opting-in model
// and every sampling strategy the two Int8 lanes must produce identical
// ranks — asserted here as exact Metrics equality over identical pools.
func TestInt8NativeLaneMatchesDequantLane(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	providers := equivalenceProviders(t, g)

	for _, name := range kgc.ModelNames() {
		m, err := kgc.New(name, g, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !kgc.SupportsInt8Native(m) {
			continue
		}
		for pname, p := range providers {
			native := Evaluate(m, g, g.Test, p, Options{
				Filter: filter, Seed: 9, Workers: 2, Precision: store.Int8})
			dequant := Evaluate(m, g, g.Test, p, Options{
				Filter: filter, Seed: 9, Workers: 2, Precision: store.Int8, Int8Dequant: true})
			if native.Metrics != dequant.Metrics {
				t.Errorf("%s/%s: native lane %+v != dequantize lane %+v",
					name, pname, native.Metrics, dequant.Metrics)
			}
			if native.Stages.KernelLane != "int8-native" {
				t.Errorf("%s/%s: native pass reported lane %q", name, pname, native.Stages.KernelLane)
			}
			if dequant.Stages.KernelLane != "int8-dequant" {
				t.Errorf("%s/%s: forced-dequant pass reported lane %q", name, pname, dequant.Stages.KernelLane)
			}
		}
	}
}

// Models without a native int8 kernel must fall back to the dequantize lane
// (and say so), and the float64 path reports the plain dequant lane while
// reproducing the reference ranker.
func TestKernelLaneReporting(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	p := &RandomProvider{NumEntities: g.NumEntities, N: 30}

	rotate, err := kgc.New("RotatE", g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if kgc.SupportsInt8Native(rotate) {
		t.Fatal("RotatE should not have an int8-native kernel")
	}
	res := Evaluate(rotate, g, g.Test, p, Options{Filter: filter, Seed: 9, Precision: store.Int8})
	if res.Stages.KernelLane != "int8-dequant" {
		t.Errorf("RotatE int8 pass reported lane %q, want int8-dequant", res.Stages.KernelLane)
	}

	dm, err := kgc.New("DistMult", g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Filter: filter, Seed: 9}
	res = Evaluate(dm, g, g.Test, p, opts)
	if res.Stages.KernelLane != "dequant" {
		t.Errorf("float64 pass reported lane %q, want dequant", res.Stages.KernelLane)
	}
	checkAgainstOracle(t, "DistMult float64", res, oracleEvaluate(dm, g, g.Test, p, opts))
}

// Same lane equivalence at a dim that is not a multiple of store.BlockDim:
// every row ends in a partial quantization block, exercising the tail-block
// handling of GatherQuantized and the tile-local dequantization.
func TestInt8NativeLaneNonDivisibleDim(t *testing.T) {
	const dim = 20 // 2.5 blocks per row
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	p := &RandomProvider{NumEntities: g.NumEntities, N: 45}

	for _, name := range []string{"TransE", "DistMult", "ComplEx"} {
		m, err := kgc.New(name, g, dim, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !kgc.SupportsInt8Native(m) {
			t.Fatalf("%s should have an int8-native kernel", name)
		}
		native := Evaluate(m, g, g.Test, p, Options{
			Filter: filter, Seed: 3, Workers: 2, Precision: store.Int8})
		dequant := Evaluate(m, g, g.Test, p, Options{
			Filter: filter, Seed: 3, Workers: 2, Precision: store.Int8, Int8Dequant: true})
		if native.Metrics != dequant.Metrics {
			t.Errorf("%s at dim %d: native lane %+v != dequantize lane %+v",
				name, dim, native.Metrics, dequant.Metrics)
		}
	}
}
