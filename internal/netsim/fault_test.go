package netsim

import (
	"sync"
	"testing"
)

func TestInjectorDeterministic(t *testing.T) {
	plan := FaultPlan{DropProb: 0.2, ErrorProb: 0.3, DelayMS: 5, JitterMS: 10, Seed: 42}
	a, b := NewInjector(plan), NewInjector(plan)
	for i := 0; i < 200; i++ {
		fa, fb := a.Next(), b.Next()
		if fa != fb {
			t.Fatalf("request %d: %v vs %v — same plan+seed must replay identically", i, fa, fb)
		}
	}
	// A different seed must produce a different sequence.
	plan.Seed = 43
	c := NewInjector(plan)
	same := true
	d := NewInjector(FaultPlan{DropProb: 0.2, ErrorProb: 0.3, DelayMS: 5, JitterMS: 10, Seed: 42})
	for i := 0; i < 200; i++ {
		if c.Next() != d.Next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestInjectorUnavailableLatch(t *testing.T) {
	in := NewInjector(FaultPlan{UnavailableAfter: 3})
	for i := 0; i < 3; i++ {
		if f := in.Next(); f.Kind != FaultNone {
			t.Fatalf("request %d: %v before the latch", i, f)
		}
	}
	for i := 0; i < 5; i++ {
		if f := in.Next(); f.Kind != FaultUnavailable {
			t.Fatalf("request %d after latch: %v", i, f)
		}
	}
	if in.Requests() != 8 {
		t.Errorf("Requests() = %d, want 8", in.Requests())
	}
}

func TestInjectorNilAndZero(t *testing.T) {
	var nilInj *Injector
	if f := nilInj.Next(); f != (Fault{}) {
		t.Errorf("nil injector: %v", f)
	}
	if nilInj.Requests() != 0 {
		t.Error("nil injector should report no state")
	}
	zero := NewInjector(FaultPlan{})
	for i := 0; i < 50; i++ {
		if f := zero.Next(); f.Kind != FaultNone || f.DelayMS != 0 {
			t.Fatalf("zero plan injected %v", f)
		}
	}
}

func TestInjectorConcurrent(t *testing.T) {
	in := NewInjector(FaultPlan{DropProb: 0.1, ErrorProb: 0.1, JitterMS: 2, UnavailableAfter: 500, Seed: 7})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Next()
			}
		}()
	}
	wg.Wait()
	if in.Requests() != 800 {
		t.Errorf("Requests() = %d, want 800", in.Requests())
	}
}

func TestParseFaultSpec(t *testing.T) {
	set, err := ParseFaultSpec("oo7:drop=0.1,delay=50,seed=9;files:downafter=3;*:error=0.25,jitter=4")
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := set.PlanFor("oo7"); p.DropProb != 0.1 || p.DelayMS != 50 || p.Seed != 9 {
		t.Errorf("oo7 plan = %+v", p)
	}
	if p, _ := set.PlanFor("files"); p.UnavailableAfter != 3 {
		t.Errorf("files plan = %+v", p)
	}
	// Unlisted wrappers inherit the "*" plan.
	if p, ok := set.PlanFor("rel"); !ok || p.ErrorProb != 0.25 || p.JitterMS != 4 {
		t.Errorf("wildcard plan = %+v, %v", p, ok)
	}
	if _, ok := FaultSet(nil).PlanFor("oo7"); ok {
		t.Error("nil set should match nothing")
	}
}

func TestParseFaultSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"nocolon",
		":drop=1",
		"w:drop",
		"w:drop=-1",
		"w:drop=x",
		"w:bogus=1",
		"w:downafter=1.5",
		"w:drop=0.7,error=0.7", // probabilities exceed 1
		"w:drop=1;w:drop=1",    // duplicate wrapper
	} {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("ParseFaultSpec(%q) should fail", spec)
		}
	}
	if set, err := ParseFaultSpec("  "); err != nil || set != nil {
		t.Errorf("blank spec = %v, %v", set, err)
	}
}

func TestFaultSpecRoundTrip(t *testing.T) {
	const spec = "files:downafter=3;oo7:drop=0.1,error=0.05,delay=50,jitter=2,seed=9"
	set, err := ParseFaultSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	re, err := ParseFaultSpec(set.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", set.String(), err)
	}
	if len(re) != len(set) {
		t.Fatalf("round trip lost entries: %q -> %q", spec, set.String())
	}
	for name, p := range set {
		if re[name] != p {
			t.Errorf("plan %s: %+v vs %+v", name, p, re[name])
		}
	}
}

// FuzzParseFaultSpec drives the spec parser with arbitrary input: it must
// never panic, and any accepted spec must render and re-parse to the same
// set (the CI fuzz-smoke job runs this for 15 s).
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("oo7:drop=0.1,delay=50;*:error=0.2")
	f.Add("w:downafter=10,seed=3")
	f.Add(";;:,=")
	f.Add("a:b=c")
	f.Fuzz(func(t *testing.T, spec string) {
		set, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		re, err2 := ParseFaultSpec(set.String())
		if err2 != nil {
			t.Fatalf("accepted spec %q rendered unparseable %q: %v", spec, set.String(), err2)
		}
		if len(re) != len(set) {
			t.Fatalf("round trip changed entry count: %q -> %q", spec, set.String())
		}
		for name, p := range set {
			if re[name] != p {
				t.Fatalf("round trip changed plan %s: %+v vs %+v", name, p, re[name])
			}
		}
	})
}
