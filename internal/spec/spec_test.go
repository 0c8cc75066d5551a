package spec

import (
	"reflect"
	"testing"
)

// baseSpec is a fully defaulted two-SC spec: Normalize leaves every field
// as it is.
func baseSpec() Federation {
	return Federation{
		SCs: []SC{
			{Name: "a", VMs: 10, ArrivalRate: 5.8, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "b", VMs: 8, ArrivalRate: 4.2, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		Model:      "approx",
		Gamma:      0.5,
		MaxShare:   4,
		Tabu:       2,
		MaxRounds:  60,
		Approx:     &Approx{Passes: 1, Prune: 1e-4, PoolCap: 4},
		SimHorizon: 1000,
		SimSeed:    7,
	}
}

// clone deep-copies a spec so a mutation never reaches the original.
func clone(sp Federation) Federation {
	sp.SCs = append([]SC(nil), sp.SCs...)
	if sp.Approx != nil {
		a := *sp.Approx
		sp.Approx = &a
	}
	return sp
}

func mustKey(t *testing.T, sp Federation) string {
	t.Helper()
	if err := sp.Normalize(); err != nil {
		t.Fatalf("normalize %+v: %v", sp, err)
	}
	key, err := sp.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestNormalizeIdempotent: a second Normalize changes nothing, neither the
// spec nor its Key, for a sparse spec that leans on every default and for
// a fully specified one.
func TestNormalizeIdempotent(t *testing.T) {
	sparse := Federation{SCs: []SC{{VMs: 10, ArrivalRate: 5.8}, {VMs: 10, ArrivalRate: 8.4}}}
	for _, sp := range []Federation{sparse, baseSpec()} {
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		once := clone(sp)
		k1, err := once.Key()
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sp, once) {
			t.Errorf("second Normalize changed the spec:\n%+v\nwant\n%+v", sp, once)
		}
		if k2, _ := sp.Key(); k2 != k1 {
			t.Errorf("second Normalize changed the key:\n%s\nwant\n%s", k2, k1)
		}
	}
}

// TestKeyEqualAfterDefaults: specs that Normalize defaults to the same
// value share one Key, and a spec that differs in any remaining field gets
// a Key of its own. The mutation table must name every field of
// Federation, SC and Approx, so a new field cannot join the spec without a
// key check.
func TestKeyEqualAfterDefaults(t *testing.T) {
	base := mustKey(t, baseSpec())

	defaulted := baseSpec()
	defaulted.Model = ""
	for i := range defaulted.SCs {
		defaulted.SCs[i].ServiceRate = 0
		defaulted.SCs[i].SLA = 0
		defaulted.SCs[i].PublicPrice = 0
	}
	named := clone(defaulted)
	named.SCs[0].Name, named.SCs[1].Name = "sc0", "sc1"
	unnamed := clone(defaulted)
	unnamed.SCs[0].Name, unnamed.SCs[1].Name = "", ""
	if got := mustKey(t, defaulted); got != base {
		t.Errorf("defaulted spec key\n%s\nwant\n%s", got, base)
	}
	if a, b := mustKey(t, named), mustKey(t, unnamed); a != b {
		t.Errorf("default SC names key\n%s\nwant\n%s", b, a)
	}
	// "approx": {} and an omitted approx build the same configuration.
	omitted := baseSpec()
	omitted.Approx = nil
	empty := baseSpec()
	empty.Approx = &Approx{}
	if a, b := mustKey(t, omitted), mustKey(t, empty); a != b {
		t.Errorf("zero approx key\n%s\nwant\n%s", b, a)
	}

	mutations := map[string]func(*Federation){
		"SCs":         func(sp *Federation) { sp.SCs = sp.SCs[:1] },
		"Name":        func(sp *Federation) { sp.SCs[0].Name = "c" },
		"VMs":         func(sp *Federation) { sp.SCs[0].VMs = 9 },
		"ArrivalRate": func(sp *Federation) { sp.SCs[0].ArrivalRate = 5.9 },
		"ServiceRate": func(sp *Federation) { sp.SCs[0].ServiceRate = 2 },
		"SLA":         func(sp *Federation) { sp.SCs[0].SLA = 0.3 },
		"PublicPrice": func(sp *Federation) { sp.SCs[0].PublicPrice = 2 },
		"Model":       func(sp *Federation) { sp.Model = "fluid" },
		"Gamma":       func(sp *Federation) { sp.Gamma = 1 },
		"MaxShare":    func(sp *Federation) { sp.MaxShare = 3 },
		"Tabu":        func(sp *Federation) { sp.Tabu = 1 },
		"MaxRounds":   func(sp *Federation) { sp.MaxRounds = 40 },
		"Approx":      func(sp *Federation) { sp.Approx = nil },
		"Passes":      func(sp *Federation) { sp.Approx.Passes = 2 },
		"Prune":       func(sp *Federation) { sp.Approx.Prune = 1e-5 },
		"PoolCap":     func(sp *Federation) { sp.Approx.PoolCap = 5 },
		"SimHorizon":  func(sp *Federation) { sp.SimHorizon = 2000 },
		"SimSeed":     func(sp *Federation) { sp.SimSeed = 8 },
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Federation{}), reflect.TypeOf(SC{}), reflect.TypeOf(Approx{})} {
		for i := 0; i < typ.NumField(); i++ {
			if _, ok := mutations[typ.Field(i).Name]; !ok {
				t.Errorf("no key check mutates %s.%s", typ.Name(), typ.Field(i).Name)
			}
		}
	}
	for field, mutate := range mutations {
		sp := clone(baseSpec())
		mutate(&sp)
		if got := mustKey(t, sp); got == base {
			t.Errorf("changing %s kept the key %s", field, got)
		}
	}
}
