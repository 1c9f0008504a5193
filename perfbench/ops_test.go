package main

import (
	"reflect"
	"testing"
	"time"
)

// tinyDataset generates and describes a small graph for op-stream tests.
func tinyDataset(t *testing.T, seed int64) *dataset {
	t.Helper()
	o := options{seed: seed, scale: 0.005}
	e, g, err := setupEnv(o.twitterConfig(), envSpec{}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	e.close()
	return describe(g, o.scale, true)
}

func opTexts(ops []*op) []string {
	var out []string
	for _, o := range ops {
		out = append(out, o.kind.String()+"|"+o.name+"|"+o.model+"|"+o.text+"|"+o.at.String())
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := tinyDataset(t, 42), tinyDataset(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed described two different datasets")
	}
	mixA := opTexts(serveMixedOps(a, 42, 400, 2*time.Second))
	mixB := opTexts(serveMixedOps(b, 42, 400, 2*time.Second))
	if len(mixA) == 0 || !reflect.DeepEqual(mixA, mixB) {
		t.Fatal("the same seed gave two different serve-mixed schedules")
	}
	wa := opTexts(writeDurableOps(a, 42, 300).ops())
	wb := opTexts(writeDurableOps(b, 42, 300).ops())
	if len(wa) != 300 || !reflect.DeepEqual(wa, wb) {
		t.Fatalf("the same seed gave two different write-durable streams (%d and %d ops)", len(wa), len(wb))
	}
	c := tinyDataset(t, 43)
	if reflect.DeepEqual(mixA, opTexts(serveMixedOps(c, 43, 400, 2*time.Second))) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestServeMixedShares(t *testing.T) {
	d := tinyDataset(t, 7)
	ops := serveMixedOps(d, 7, 400, 20*time.Second)
	n := map[opKind]int{}
	for i, o := range ops {
		n[o.kind]++
		if i > 0 && o.at < ops[i-1].at {
			t.Fatal("arrivals out of order")
		}
	}
	total := float64(len(ops))
	if total < 7000 || total > 9000 {
		t.Fatalf("%v arrivals in 20s at 400/s", total)
	}
	if r := float64(n[kindHeavy]) / total; r < 0.005 || r > 0.02 {
		t.Fatalf("heavy share %.3f, want about %.2f", r, heavyShare)
	}
	if r := float64(n[kindUpdate]) / total; r < 0.07 || r > 0.11 {
		t.Fatalf("update share %.3f, want about %.2f", r, updateShare)
	}
}
