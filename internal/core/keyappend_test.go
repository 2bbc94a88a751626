package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"mergescale/internal/engine"
)

// TestKeyAppendersMatchGoSyntax locks every core AppendKey to %#v.
func TestKeyAppendersMatchGoSyntax(t *testing.T) {
	apps := append(TableIIApps(),
		AppParams{},
		AppParams{Name: "weird \"name\"", F: 0.999999, FCon: -0.5, FOred: 1e-9, Growth: GrowthLog},
	)
	for _, c := range TableIIIClasses() {
		apps = append(apps, c.Params)
	}
	for _, a := range apps {
		if got, want := string(a.AppendKey(nil)), fmt.Sprintf("%#v", a); got != want {
			t.Errorf("AppParams.AppendKey = %q, want %q", got, want)
		}
	}
	for _, bgt := range []Budget{{}, DefaultBudget, {N: -7}} {
		if got, want := string(bgt.AppendKey(nil)), fmt.Sprintf("%#v", bgt); got != want {
			t.Errorf("Budget.AppendKey = %q, want %q", got, want)
		}
	}
	prop := func(a AppParams, b Budget) bool {
		return string(a.AppendKey(nil)) == fmt.Sprintf("%#v", a) &&
			string(b.AppendKey(nil)) == fmt.Sprintf("%#v", b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSweepKeyGoldens pins engine.Key digests over the core model types,
// so a drift in their key encoding (which experiment config fingerprints
// hash into persistent disk-cache keys) fails here loudly.
func TestSweepKeyGoldens(t *testing.T) {
	app := KMeansParams
	b := DefaultBudget
	goldens := []struct {
		name, got, want string
	}{
		{"sweep-sym", engine.Key("sweep-sym", app, b, 1.0), "4f89c0dd91f14512"},
		{"sweep-asym", engine.Key("sweep-asym", app, b, 2.0, 4.0), "d0b5808048063fae"},
		{"sweep-sym-comm", engine.Key("sweep-sym-comm", NewCommModel(app), b, 8.0), "d6e7dd4c80ff6d5b"},
		{"sweep-asym-comm", engine.Key("sweep-asym-comm", NewCommModel(HopParams), b, 2.0, 16.0), "a78bb47da1dc9fb8"},
	}
	for _, g := range goldens {
		if g.got != g.want {
			t.Errorf("%s key = %q, golden %q", g.name, g.got, g.want)
		}
	}
}
