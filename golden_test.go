package dpmg

// Golden tests pin the literal released values for fixed inputs and seeds:
// one seeded release per (front-end × mechanism) pair, captured once and
// committed below. They protect two properties at once: the seed → noise
// mapping must stay stable across refactors (experiments and audits depend
// on it), and the iteration order of the release must stay
// input-independent (the Section 5.2 requirement — a change that made the
// noise assignment depend on map iteration order would change the literals).
//
// The support set is pinned exactly for every row. Laplace, standard, pure,
// merged-laplace and geometric values are pinned as exact float64 bits:
// those paths use only Log1p/Log and integer floors. Gaussian values carry
// a 1e-9 relative tolerance, because calibration goes through math.Exp,
// whose amd64 implementation takes an FMA-dependent path.

import (
	"math"
	"strconv"
	"testing"
)

// goldenItems is the fixed input stream every item-keyed row sketches:
// six heavy items, then ten singletons that force decrements at k = 8.
func goldenItems() []Item {
	var xs []Item
	for i, c := range []int{400, 300, 250, 200, 120, 60} {
		for j := 0; j < c; j++ {
			xs = append(xs, Item(10*(i+1)))
		}
	}
	for x := Item(500); x < 510; x++ {
		xs = append(xs, x)
	}
	return xs
}

func goldenSketch() *Sketch {
	sk := NewSketch(8, 1000)
	sk.UpdateBatch(goldenItems())
	return sk
}

// goldenPairs lists a histogram as (decimal item, value) pairs in ascending
// item order, the shape every golden row is compared in.
func goldenPairs(h Histogram, err error) ([]StringCount, error) {
	if err != nil {
		return nil, err
	}
	out := make([]StringCount, 0, len(h))
	for _, x := range h.Items() {
		out = append(out, StringCount{Name: strconv.FormatUint(uint64(x), 10), Count: h[x]})
	}
	return out, nil
}

func TestGoldenReleaseStable(t *testing.T) {
	p := Params{Eps: 1, Delta: 1e-6}
	merged := func() *MergeableSummary {
		a, err := goldenSketch().Summary()
		if err != nil {
			t.Fatal(err)
		}
		sk := NewSketch(8, 1000)
		sk.UpdateBatch(goldenItems()[200:])
		b, err := sk.Summary()
		if err != nil {
			t.Fatal(err)
		}
		m, err := MergeSummaries(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	acct, err := NewAccountant(Budget{Eps: 3, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name     string
		gaussian bool
		release  func() ([]StringCount, error)
		want     []StringCount
	}{
		{name: "sketch/laplace", release: func() ([]StringCount, error) {
			return goldenPairs(Release(goldenSketch(), p, WithMechanism(MechanismLaplace), WithSeed(12345)))
		}, want: []StringCount{
			{"10", 396.94305277806455}, {"20", 298.00571152087804}, {"30", 247.08871478465093},
			{"40", 195.83198222440555}, {"50", 116.61026196517591}, {"60", 59.239497884066736},
		}},
		{name: "sketch/geometric", release: func() ([]StringCount, error) {
			return goldenPairs(Release(goldenSketch(), p, WithMechanism(MechanismGeometric), WithSeed(777)))
		}, want: []StringCount{
			{"10", 398}, {"20", 300}, {"30", 248}, {"40", 199}, {"50", 119}, {"60", 57},
		}},
		{name: "sketch/pure", release: func() ([]StringCount, error) {
			return goldenPairs(Release(goldenSketch(), Params{Eps: 1}, WithMechanism(MechanismPure), WithSeed(4242)))
		}, want: []StringCount{
			{"10", 250.85194744411586}, {"20", 153.2611113925271}, {"30", 100.36907536843759},
			{"40", 52.656166909981806}, {"210", 10.483567087849087}, {"238", 11.885237696231686},
			{"599", 11.046761153650134}, {"857", 11.039961939005124},
		}},
		{name: "sketch/gaussian", gaussian: true, release: func() ([]StringCount, error) {
			return goldenPairs(Release(goldenSketch(), p, WithMechanism(MechanismGaussian), WithSeed(9001)))
		}, want: []StringCount{
			{"10", 385.13702962945433}, {"20", 300.9001369193969}, {"30", 240.74646450949757},
			{"40", 201.1710510178425}, {"50", 142.5238583667222},
		}},
		{name: "standard/laplace", release: func() ([]StringCount, error) {
			sk := NewStandardSketch(8)
			for _, x := range goldenItems() {
				sk.Update(x)
			}
			return goldenPairs(Release(sk, p, WithMechanism(MechanismLaplace), WithSeed(77)))
		}, want: []StringCount{
			{"10", 397.6532784130643}, {"20", 298.76956355733176}, {"30", 247.23674112000805},
			{"40", 197.97583333187075}, {"50", 119.91857673986267}, {"60", 55.863332766212956},
		}},
		{name: "merged/laplace", release: func() ([]StringCount, error) {
			return goldenPairs(Release(merged(), p, WithMechanism(MechanismLaplace), WithSeed(5)))
		}, want: []StringCount{
			{"10", 597.0835489284594}, {"20", 593.6829418740041}, {"30", 499.5743664415208},
			{"40", 383.07313225564656},
		}},
		{name: "merged/gaussian", gaussian: true, release: func() ([]StringCount, error) {
			return goldenPairs(Release(merged(), p, WithMechanism(MechanismGaussian), WithSeed(5)))
		}, want: []StringCount{
			{"10", 600.0709452062116}, {"20", 607.1344316890744}, {"30", 521.4076868483123},
			{"40", 401.19749440345794}, {"50", 220.72076879968682}, {"60", 115.68736760591028},
		}},
		{name: "sharded/gaussian", gaussian: true, release: func() ([]StringCount, error) {
			sh := NewShardedSketch(2, 8, 1000)
			sh.UpdateBatch(goldenItems())
			return goldenPairs(Release(sh, p, WithMechanism(MechanismGaussian), WithSeed(13)))
		}, want: []StringCount{
			{"10", 412.8751104604931}, {"20", 285.27723027431733}, {"30", 263.5339213615974},
			{"40", 206.3051690909166}, {"50", 128.3050050820323},
		}},
		{name: "user/gaussian", gaussian: true, release: func() ([]StringCount, error) {
			us := NewUserSketch(8, 2)
			for i := 0; i < 600; i++ {
				set := []Item{Item(1 + i%3), Item(10 + i%5)}
				if err := us.AddUser(set); err != nil {
					return nil, err
				}
			}
			return goldenPairs(Release(us, p, WithMechanism(MechanismGaussian), WithSeed(21)))
		}, want: []StringCount{
			{"1", 198.89471920090176}, {"2", 200.8250068062148}, {"3", 211.48738358485085},
			{"10", 119.1900144262418}, {"11", 115.2547109622594}, {"12", 120.32827083831683},
			{"13", 132.6090924735759}, {"14", 121.53594192201875},
		}},
		{name: "string/top", release: func() ([]StringCount, error) {
			s := NewStringSketch(8, 100)
			for i, c := range []int{300, 200, 150, 90} {
				for j := 0; j < c; j++ {
					if err := s.Update("q" + strconv.Itoa(i)); err != nil {
						return nil, err
					}
				}
			}
			return s.ReleaseTop(p, WithSeed(31))
		}, want: []StringCount{
			{"q0", 301.3478479821137}, {"q1", 199.39647468302005}, {"q2", 149.4187410091614},
			{"q3", 91.17470505920079},
		}},
		{name: "accountant/laplace", release: func() ([]StringCount, error) {
			return goldenPairs(Release(goldenSketch(), p, WithMechanism(MechanismLaplace), WithSeed(12345), WithAccountant(acct)))
		}, want: []StringCount{
			{"10", 396.94305277806455}, {"20", 298.00571152087804}, {"30", 247.08871478465093},
			{"40", 195.83198222440555}, {"50", 116.61026196517591}, {"60", 59.239497884066736},
		}},
	}
	for _, r := range rows {
		got, err := r.release()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(got) != len(r.want) {
			t.Errorf("%s: support drift: got %v, want %v", r.name, got, r.want)
			continue
		}
		for i, w := range r.want {
			g := got[i]
			switch {
			case g.Name != w.Name:
				t.Errorf("%s: support drift at %d: got %q, want %q", r.name, i, g.Name, w.Name)
			case r.gaussian && math.Abs(g.Count-w.Count) > 1e-9*math.Abs(w.Count):
				t.Errorf("%s: value drift at %s: got %v, want %v", r.name, w.Name, g.Count, w.Count)
			case !r.gaussian && math.Float64bits(g.Count) != math.Float64bits(w.Count):
				t.Errorf("%s: value drift at %s: got %v, want %v", r.name, w.Name, g.Count, w.Count)
			}
		}
	}
	if rem := acct.Remaining(); rem != (Budget{Eps: 2, Delta: 9e-06}) {
		t.Errorf("accountant remaining = %#v", rem)
	}
}

// TestGoldenGeometricStable checks that ten independent geometric releases
// with the same seed agree exactly, support and values.
func TestGoldenGeometricStable(t *testing.T) {
	p := Params{Eps: 1, Delta: 1e-6}
	h, err := Release(goldenSketch(), p, WithMechanism(MechanismGeometric), WithSeed(777))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 10; rep++ {
		h2, _ := Release(goldenSketch(), p, WithMechanism(MechanismGeometric), WithSeed(777))
		if len(h2) != len(h) {
			t.Fatalf("rep %d: support drift", rep)
		}
		for x, v := range h {
			if h2[x] != v {
				t.Fatalf("rep %d: value drift at %d", rep, x)
			}
		}
	}
}
