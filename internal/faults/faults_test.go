package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

var ctx = context.Background()

// decisions draws n injection outcomes from a fresh injector for name.
func decisions(t *testing.T, p *Plan, name string, n int) []error {
	t.Helper()
	in := p.Link(name)
	if in == nil {
		t.Fatalf("plan has no faults for link %s", name)
	}
	out := make([]error, n)
	for i := range out {
		out[i] = in.Inject(ctx, OpRead)
	}
	return out
}

func TestInjectorDeterminism(t *testing.T) {
	p := &Plan{Seed: 42, Links: map[string]LinkFaults{
		"*": {ErrRate: 0.3, DropRate: 0.1},
	}}
	a := decisions(t, p, "ny", 200)
	b := decisions(t, p, "ny", 200)
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || !errors.Is(b[i], errors.Unwrap(a[i])) && a[i] != nil {
			t.Fatalf("decision %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	// Both fault kinds must actually occur at these rates over 200 draws.
	var errs, drops int
	for _, err := range a {
		switch {
		case errors.Is(err, ErrInjected):
			errs++
		case errors.Is(err, ErrDropped):
			drops++
		}
	}
	if errs == 0 || drops == 0 {
		t.Errorf("expected both fault kinds in 200 draws, got errs=%d drops=%d", errs, drops)
	}
}

func TestInjectorSeedAndLinkVarySequence(t *testing.T) {
	base := &Plan{Seed: 1, Links: map[string]LinkFaults{"*": {ErrRate: 0.5}}}
	reseeded := &Plan{Seed: 2, Links: base.Links}
	same := func(a, b []error) bool {
		for i := range a {
			if (a[i] == nil) != (b[i] == nil) {
				return false
			}
		}
		return true
	}
	a := decisions(t, base, "ny", 100)
	if same(a, decisions(t, reseeded, "ny", 100)) {
		t.Error("changing the seed left the decision sequence unchanged")
	}
	if same(a, decisions(t, base, "la", 100)) {
		t.Error("different links share a decision sequence")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7;*:err=0.05;ny:drop=0.1,stall=40ms,stallp=0.3,ops=read+commit")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 {
		t.Errorf("seed = %d, want 7", p.Seed)
	}
	if lf := p.Links["*"]; lf.ErrRate != 0.05 {
		t.Errorf("default link ErrRate = %v", lf.ErrRate)
	}
	ny := p.Links["ny"]
	if ny.DropRate != 0.1 || ny.Stall != 40*time.Millisecond || ny.StallRate != 0.3 {
		t.Errorf("ny faults = %+v", ny)
	}
	if len(ny.Ops) != 2 || ny.Ops[0] != OpRead || ny.Ops[1] != OpCommit {
		t.Errorf("ny ops = %v", ny.Ops)
	}
	// stallp defaults to 1 when only stall is given.
	p, err = ParsePlan("ny:stall=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Links["ny"].StallRate != 1 {
		t.Errorf("implicit stallp = %v, want 1", p.Links["ny"].StallRate)
	}
	// Partition windows.
	p, err = ParsePlan("ny:part=2s+5s")
	if err != nil {
		t.Fatal(err)
	}
	if lf := p.Links["ny"]; lf.PartitionAfter != 2*time.Second || lf.PartitionFor != 5*time.Second {
		t.Errorf("partition window = %+v", lf)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"",                 // no link faults at all
		"seed=abc;*:err=1", // bad seed
		"noseparator",      // clause without link:faults
		":err=1",           // empty link name
		"*:err",            // fault without value
		"*:err=1.5",        // probability outside [0,1]
		"*:frob=1",         // unknown fault key
		"*:part=2s",        // partition without +FOR
		"*:ops=teleport",   // unknown op class
		"*:stall=fast",     // unparseable duration
		"seed=1",           // seed alone declares no faults
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", spec)
		}
	}
}

func TestOpClassFiltering(t *testing.T) {
	p := &Plan{Seed: 3, Links: map[string]LinkFaults{
		"ny": {ErrRate: 1, Ops: []OpClass{OpCommit}},
	}}
	in := p.Link("ny")
	for i := 0; i < 50; i++ {
		if err := in.Inject(ctx, OpRead); err != nil {
			t.Fatalf("read %d injected despite ops=commit: %v", i, err)
		}
	}
	if err := in.Inject(ctx, OpCommit); !errors.Is(err, ErrInjected) {
		t.Errorf("commit at rate 1 not injected: %v", err)
	}
}

func TestPartitionWindow(t *testing.T) {
	p := &Plan{Links: map[string]LinkFaults{
		"ny": {PartitionFor: 60 * time.Millisecond},
	}}
	in := p.Link("ny")
	if err := in.Inject(ctx, OpRead); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("inside window: %v, want ErrPartitioned", err)
	}
	time.Sleep(80 * time.Millisecond)
	if err := in.Inject(ctx, OpRead); err != nil {
		t.Errorf("after window: %v, want nil", err)
	}
}

func TestStallHonorsCancellation(t *testing.T) {
	p := &Plan{Links: map[string]LinkFaults{
		"ny": {Stall: 5 * time.Second, StallRate: 1},
	}}
	in := p.Link("ny")
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	start := time.Now()
	if err := in.Inject(cctx, OpRead); !errors.Is(err, context.Canceled) {
		t.Errorf("stall under cancelled ctx: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled stall still slept %v", d)
	}
}

func TestNilSafety(t *testing.T) {
	var p *Plan
	if in := p.Link("x"); in != nil {
		t.Error("nil plan built an injector")
	}
	var in *Injector
	if err := in.Inject(ctx, OpWrite); err != nil {
		t.Errorf("nil injector injected: %v", err)
	}
	// A plan without a matching link (and no default) injects nothing.
	p = &Plan{Links: map[string]LinkFaults{"ny": {ErrRate: 1}}}
	if in := p.Link("la"); in != nil {
		t.Error("unmatched link built an injector")
	}
	// Inactive faults build no injector either.
	p = &Plan{Links: map[string]LinkFaults{"ny": {}}}
	if in := p.Link("ny"); in != nil {
		t.Error("zero-value faults built an injector")
	}
}

func TestInjectedClassification(t *testing.T) {
	for _, err := range []error{ErrInjected, ErrDropped, ErrPartitioned} {
		if !Injected(err) {
			t.Errorf("Injected(%v) = false", err)
		}
	}
	if Injected(errors.New("organic failure")) || Injected(nil) {
		t.Error("Injected misclassified a non-injected error")
	}
}

// FuzzParsePlan: ParsePlan, which reads gisd's and gisql's -faults flag,
// returns a plan or an error and never panics, and a plan it returns
// declares some link, each rate of which lies in [0, 1]. The seeds are
// the specs of the tests and of the commands' help.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"seed=7;*:err=0.05;ny:drop=0.1,stall=40ms,stallp=0.3,ops=read+commit",
		"seed=23;*:err=0.1,drop=0.05,stall=1ms,stallp=0.2,ops=read",
		"seed=7;*:err=0.05,stall=50ms,stallp=0.1",
		"seed=5;eu:err=0.25,drop=0.1,ops=read",
		"eu:err=1,ops=prepare",
		"ny:stall=5ms",
		"ny:part=2s+5s",
		"", "seed=abc;*:err=1", "noseparator", ":err=1", "*:err", "*:err=1.5",
		"*:frob=1", "*:part=2s", "*:ops=teleport", "*:stall=fast", "seed=1",
		// ParseFloat reads "NaN", for which p < 0 and p > 1 are both false.
		"*:err=NaN", "*:stallp=-0", "*:drop=1e-400",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if len(p.Links) == 0 {
			t.Fatalf("ParsePlan(%q) returned a plan of no links", spec)
		}
		for name, lf := range p.Links {
			for _, r := range []float64{lf.ErrRate, lf.DropRate, lf.StallRate} {
				if !(r >= 0 && r <= 1) {
					t.Fatalf("ParsePlan(%q): link %q has rate %v outside [0, 1]", spec, name, r)
				}
			}
		}
	})
}
