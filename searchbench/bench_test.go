package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// kSequence deploys history-direct for seed and issues rounds searches per
// user, users in order, one at a time; it returns the deployment's inputs
// and every search's assessed k in issue order.
func kSequence(t *testing.T, seed int64, rounds int) (*inputs, []int) {
	t.Helper()
	wl, err := workloadNamed("history-direct")
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(wl, seed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy(wl, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	var ks []int
	seq := 0
	for r := 0; r < rounds; r++ {
		for u, id := range d.users {
			seq++
			res, err := d.net.Node(id).Search(in.streams[u][r], searchBase.Add(time.Duration(seq)))
			if err != nil {
				t.Fatalf("search %d of %s: %v", r, id, err)
			}
			ks = append(ks, res.Assessment.K)
		}
	}
	return in, ks
}

func queryMultiset(in *inputs) []string {
	var all []string
	for u := range in.streams {
		all = append(all, in.history[u]...)
		all = append(all, in.streams[u]...)
	}
	slices.Sort(all)
	return all
}

func TestSeedDeterminesQueriesAndK(t *testing.T) {
	in1, k1 := kSequence(t, 7, 6)
	in2, k2 := kSequence(t, 7, 6)
	in3, k3 := kSequence(t, 8, 6)
	if !slices.Equal(queryMultiset(in1), queryMultiset(in2)) {
		t.Error("seed 7 gave two different query multisets")
	}
	if !slices.Equal(k1, k2) {
		t.Errorf("seed 7 gave two different k sequences:\n%v\n%v", k1, k2)
	}
	if slices.Equal(queryMultiset(in1), queryMultiset(in3)) {
		t.Error("seeds 7 and 8 gave the same query multiset")
	}
	if slices.Equal(k1, k3) {
		t.Error("seeds 7 and 8 gave the same k sequence")
	}
}

// tracedPass runs one short traced pass of the named workload.
func tracedPass(t *testing.T, name string) (*pass, []span) {
	t.Helper()
	wl, err := workloadNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	d, err := deploy(wl, in, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	tr.reset()
	p := d.run(500*time.Millisecond, 100*time.Millisecond)
	return p, tr.take()
}

func TestSpanTreeWellFormed(t *testing.T) {
	for _, name := range []string{"history-direct", "churn-tcp"} {
		t.Run(name, func(t *testing.T) {
			p, spans := tracedPass(t, name)
			tree, err := buildTree(spans)
			if err != nil {
				t.Fatal(err)
			}
			o := p.outcome()
			if o.attempted == 0 || o.wrong != 0 {
				t.Fatalf("pass: %+v", o)
			}
			var roots, detects int
			for i, s := range tree.spans {
				switch s.kind {
				case kindSearch:
					roots++
				case kindDetect:
					detects++
				}
				if s.kind != kindSearch && tree.parent[i] < 0 {
					t.Fatalf("%s span %d has no parent", s.kind, i)
				}
			}
			issued := 0 // every attempt of a search has its own root
			for _, s := range p.samples {
				issued += 1 + s.reissued
			}
			if roots != issued || detects != roots {
				t.Errorf("%d searches issued, %d search spans, %d detect spans", issued, roots, detects)
			}
		})
	}
}

func TestBuildTreeRejectsMalformed(t *testing.T) {
	root := span{id: 1, kind: kindSearch, key: "a", start: 0, end: 100}
	for name, child := range map[string]span{
		"unknown id":      {id: 2, kind: kindDeliver, key: "b", start: 10, end: 20},
		"outside parent":  {id: 1, kind: kindDeliver, key: "b", start: 90, end: 110},
		"missing deliver": {id: 1, kind: kindServe, key: "b", start: 10, end: 20},
	} {
		if _, err := buildTree([]span{root, child}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, kind: kindSearch, key: "a", start: 0, end: 100},
		{id: 1, kind: kindDetect, key: "a", start: 5, end: 10},
		{id: 1, kind: kindDeliver, key: "b", start: 20, end: 60},
		{id: 1, kind: kindDeliver, key: "c", start: 40, end: 70}, // overlaps b
		{id: 1, kind: kindServe, key: "b", start: 25, end: 55},
		{id: 1, kind: kindStack, key: "b", start: 30, end: 50},
	}
	tree, err := buildTree(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Root: 100 minus the union [5,10) ∪ [20,70) = 55; grandchildren do
	// not count twice.
	for i, want := range []int64{45, 5, 10, 30, 10, 20} {
		if got := tree.selfTime(i); got != want {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].kind, got, want)
		}
	}
	if got := covered(0, 10, [][2]int64{{-5, 3}, {8, 20}, {4, 4}}); got != 5 {
		t.Errorf("clipped cover %d, want 5", got)
	}
}

func TestCalmWindows(t *testing.T) {
	sec := time.Second
	win := func(i int, steal int64) window {
		return window{from: time.Duration(i) * sec, to: time.Duration(i+1) * sec, steal: steal}
	}
	mostly := []window{win(0, 0), win(1, 1), win(2, 0), win(3, 0)}
	if got := calm(mostly); len(got) != 3 || got[0].from != 0 || got[1].from != 2*sec || got[2].from != 3*sec {
		t.Errorf("calm kept %v, want windows 0, 2 and 3", got)
	}
	stolen := []window{win(0, 5), win(1, 10), win(2, 0), win(3, 3)}
	if got := calm(stolen); len(got) != 2 || got[0].from != 2*sec || got[1].from != 3*sec {
		t.Errorf("with most windows stolen calm kept %v, want the least-stolen half: windows 2 and 3", got)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fanout-tcp", "--trace", "2"},
		{"--workload", "fanout-tcp", "--seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
		if !strings.Contains(errs.String(), "searchbench") {
			t.Errorf("%v: stderr %q names no cause", args, errs.String())
		}
	}
}
