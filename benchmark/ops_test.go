package main

import (
	"strings"
	"testing"
)

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := &opGen{w: w, seed: 7, size: smokeSizing}
		b := &opGen{w: w, seed: 7, size: smokeSizing}
		c := &opGen{w: w, seed: 8, size: smokeSizing}
		same, differs := true, false
		for cyc := 0; cyc < 5; cyc++ {
			oa, ob, oc := a.cycle(cyc), b.cycle(cyc), c.cycle(cyc)
			for j := range oa {
				if oa[j].path != ob[j].path || oa[j].class != ob[j].class {
					same = false
				}
				if oa[j].path != oc[j].path {
					differs = true
				}
			}
		}
		if !same {
			t.Errorf("%s: two generators of one seed disagree", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same op list", w.name)
		}
	}
}

func TestCycleMix(t *testing.T) {
	want := map[string]map[string]int{
		"scan_inproc":   {classHist: 6, classCached: 3, classHeatmap: 3, classHH: 3, classFilter: 2, classTable: 1},
		"scan_cluster":  {classHist: 6, classCached: 3, classHeatmap: 3, classHH: 3, classFilter: 2, classTable: 1},
		"pool_pressure": {classHist: 13, classCached: 1, classHeatmap: 3, classHH: 1, classFilter: 1, classTable: 1},
		"ingest_query":  {classHist: 8, classCached: 3, classHeatmap: 1, classHH: 1, classFilter: 1, classTable: 1, classStanding: 1},
	}
	for i := range workloads {
		w := &workloads[i]
		g := &opGen{w: w, seed: 1, size: smokeSizing}
		seen := map[string]bool{}        // scanning requests must never repeat, or they would be cache hits
		for cyc := 0; cyc < 100; cyc++ { // more than any run sends: warm-up + solo + duo
			got := map[string]int{}
			for _, o := range g.cycle(cyc) {
				got[o.class]++
				if o.exact && o.class == classHist {
					if seen[o.path] {
						t.Fatalf("%s cycle %d: exact histogram %s repeats", w.name, cyc, o.path)
					}
					seen[o.path] = true
				}
			}
			for class, n := range want[w.name] {
				if got[class] != n {
					t.Fatalf("%s cycle %d: %d %s ops, want %d", w.name, cyc, got[class], class, n)
				}
			}
			if len(got) != len(want[w.name]) {
				t.Fatalf("%s cycle %d: classes %v, want %v", w.name, cyc, got, want[w.name])
			}
		}
	}
}

// TestMeasuredCounts holds the fixed run lengths to the sample counts
// the metrics need: at full size the one-client part must give
// hist_p95_ms its 200 samples and every p50 at least 30.
func TestMeasuredCounts(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, size := range []sizing{fullSizing, smokeSizing} {
			n, ok := size.measured[w.name]
			if !ok || (n.batches == 0) == (n.solo == 0) || (w.ingest != (n.batches > 0)) {
				t.Fatalf("%s: measured section %+v (present=%v)", w.name, n, ok)
			}
			if n.batches == 0 && n.solo/2 < 2 {
				t.Errorf("%s: the traced run needs a traced and an untraced cycle, solo/2 = %d", w.name, n.solo/2)
			}
		}
		n := fullSizing.measured[w.name]
		if w.ingest {
			continue // the reader loops beside a writer that takes batches/appendHz seconds; its counts are checked by the run
		}
		perCycle := map[string]int{}
		for _, o := range (&opGen{w: w, seed: 1, size: fullSizing}).cycle(0) {
			perCycle[o.class]++
		}
		if got := n.solo * perCycle[classHist]; got < 20*minBeyond {
			t.Errorf("%s: %d hist samples with one client, p95 needs %d", w.name, got, 20*minBeyond)
		}
		for _, lm := range latencyMetrics {
			if got := n.solo * perCycle[lm.class]; got < 30 {
				t.Errorf("%s: %s rests on %d samples, want at least 30", w.name, lm.metric, got)
			}
		}
	}
}

func TestCheckHistogram(t *testing.T) {
	const final = `{"buckets":{"Count":3},"counts":[5,3,1],"missing":1,"partial":false,"rate":1}`
	cases := []struct {
		name, body, wantErr string
	}{
		{"final only", final, ""},
		{"partials then final", `{"partial":true,"done":1,"total":4,"counts":[1,0,0]}` + "\n" + `{"partial":true,"done":3,"total":4,"counts":[4,2,1]}` + "\n" + final, ""},
		{"progress goes back", `{"partial":true,"done":3,"counts":[1]}` + "\n" + `{"partial":true,"done":2,"counts":[1]}` + "\n" + final, "went back"},
		{"no final line", `{"partial":true,"done":1,"counts":[1]}`, "partial=true"},
		{"final in the middle", final + "\n" + final, "partial=false"},
		{"rows unaccounted for", strings.Replace(final, `"missing":1`, `"missing":0`, 1), "counts+missing = 9"},
		{"bucket count mismatch", strings.Replace(final, `"Count":3`, `"Count":4`, 1), "3 counts for 4 buckets"},
		{"not JSON", "oops", "line 0"},
	}
	for _, c := range cases {
		st := newRunState("v", "", nil)
		st.viewRows["v"] = 10
		o := exactHist("v", "x", 3)
		err := st.validate(&o, 200, []byte(c.body+"\n"), 1)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestCachedAnswerMustRepeat(t *testing.T) {
	st := newRunState("v", "", nil)
	st.viewRows["v"] = 10
	o := exactHist("v", "x", 3)
	first := `{"buckets":{"Count":3},"counts":[5,3,1],"missing":1,"partial":false,"rate":1}` + "\n"
	if err := st.validate(&o, 200, []byte(first), 1); err != nil {
		t.Fatal(err)
	}
	c := o
	c.class, c.rememberAs = classCached, false
	if err := st.validate(&c, 200, []byte(first), 1); err != nil {
		t.Errorf("identical repeat: %v", err)
	}
	other := strings.Replace(first, "[5,3,1]", "[3,5,1]", 1)
	if err := st.validate(&c, 200, []byte(other), 1); err == nil {
		t.Error("a cached answer that differs from the first must fail")
	}
	if err := st.validate(&c, 503, []byte("busy"), 1); err == nil {
		t.Error("a non-200 must fail")
	}
}

func TestCheckTableOrder(t *testing.T) {
	st := newRunState("v", "", []string{"n"})
	st.viewRows["v"] = 4
	cases := []struct {
		order string
		rows  string
		ok    bool
	}{
		{"+n", `[["","x"],["2","b"],["10","a"]]`, true}, // numeric, missing first
		{"+n", `[["10","a"],["2","b"]]`, false},
		{"-n", `[["10","a"],["2","b"],["","x"]]`, true}, // descending: missing last
		{"-n", `[["","x"],["2","b"]]`, false},
		{"+s", `[["10","a"],["2","b"]]`, true}, // strings order lexically
		{"+n,-s", `[["1","b"],["1","a"],["2","z"]]`, true},
		{"+n,-s", `[["1","a"],["1","b"]]`, false},
	}
	for _, c := range cases {
		o := tablePage("v", c.order, "")
		body := `{"columns":[],"rows":` + c.rows + `,"total":4}`
		err := st.validate(&o, 200, []byte(body), 1)
		if (err == nil) != c.ok {
			t.Errorf("order %s rows %s: err = %v, want ok=%v", c.order, c.rows, err, c.ok)
		}
	}
}

func TestCheckHeavyHittersAndFilter(t *testing.T) {
	if err := checkHeavyHitters([]byte(`[{"value":"a","count":9},{"value":"b","count":9},{"value":"c","count":2}]`)); err != nil {
		t.Errorf("sorted hitters: %v", err)
	}
	if err := checkHeavyHitters([]byte(`[{"value":"a","count":2},{"value":"b","count":9}]`)); err == nil {
		t.Error("increasing counts must fail")
	}
	if err := checkHeavyHitters([]byte(`[]`)); err == nil {
		t.Error("no hitters must fail")
	}
	st := newRunState("v", "", nil)
	st.viewRows["v"] = 10
	o := filter("v", "f1", "x > 1")
	if err := st.validate(&o, 200, []byte(`{"view":"f1","rows":4}`), 1); err != nil {
		t.Errorf("filter: %v", err)
	}
	if st.viewRows["f1"] != 4 || st.newest != "f1" {
		t.Errorf("filter must register the derived view: %v newest %q", st.viewRows, st.newest)
	}
	if err := st.validate(&o, 200, []byte(`{"view":"f1","rows":11}`), 1); err == nil {
		t.Error("a filter with more rows than its parent must fail")
	}
}

func TestAppendAcksTrackSeals(t *testing.T) {
	st := newRunState("v", "", nil)
	o := op{class: classAppend, rows: 100}
	for i, ack := range []string{
		`{"appended":100,"openRows":100}`,
		`{"appended":100,"openRows":200}`,
		`{"appended":100,"openRows":0}`, // crossed -segment-rows: sealed
		`{"appended":100,"openRows":100}`,
	} {
		if err := st.validate(&o, 200, []byte(ack), float64(10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if st.appended != 400 || st.openRows != 100 {
		t.Errorf("appended %d open %d, want 400 and 100", st.appended, st.openRows)
	}
	if len(st.sealAcks) != 1 || st.sealAcks[0] != 30 {
		t.Errorf("seal acks %v, want the third append's 30 ms", st.sealAcks)
	}
	if err := st.validate(&o, 200, []byte(`{"appended":99,"openRows":0}`), 1); err == nil {
		t.Error("a short acknowledgement must fail")
	}
}
