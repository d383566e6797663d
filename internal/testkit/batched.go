package testkit

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/table"
)

// RunBatched is the scan-batching differential: for one seed it draws
// pairs and triples from the harness sketch set, wraps each group in a
// sketch.MultiSketch, and demands every member's result be bit-identical
// to its solo run — through the reference fold, the parallel engine,
// and the serve.Scheduler both ways it shares a pass: queries gathered
// behind a busy dataset (including a member cancelled mid-batch) and a
// group submitted as one MultiSketch. Bit-identity, not oracle
// tolerance: a batch shares the solo path's partitions, seeds, and
// merge order, so even merge-order-bounded sketches (Misra–Gries) and
// seeded sampled sketches must match exactly. One group always carries
// a MetaSketch, whose Leaves counts partitions: a batch must not change
// what one scan unit is.
func RunBatched(seed uint64) error {
	p := genParams(seed)
	tables, info := table.GenPartitions(p.prefix, seed, p.rows, p.parts)
	cfg := engine.Config{Parallelism: 3, AggregationWindow: -1}
	local := engine.NewLocal(datasetID, tables, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = tracedContext(ctx)

	// Batch-eligible members: every instance but the multis, which don't
	// nest.
	var eligible []sketch.Sketch
	for _, sk := range Instances(seed, info) {
		if _, isMulti := sk.(*sketch.MultiSketch); !isMulti {
			eligible = append(eligible, sk)
		}
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })

	// Rotating pairs and triples off the shuffled deck, plus a MetaSketch
	// beside the deck's first two.
	var groups [][]sketch.Sketch
	for i, size := 0, 2; i+size <= len(eligible) && len(groups) < 6; size = 5 - size {
		groups = append(groups, eligible[i:i+size])
		i += size
	}
	groups = append(groups, []sketch.Sketch{eligible[0], &sketch.MetaSketch{}, eligible[1]})

	solo := func(sk sketch.Sketch) (ref, eng sketch.Result, err error) {
		if ref, err = reference(sk, tables); err != nil {
			return nil, nil, fmt.Errorf("solo reference %s: %w", sk.Name(), err)
		}
		if eng, err = local.Sketch(ctx, sk, nil); err != nil {
			return nil, nil, fmt.Errorf("solo engine %s: %w", sk.Name(), err)
		}
		return ref, eng, nil
	}

	for gi, members := range groups {
		multi, err := sketch.NewMultiSketch(members...)
		if err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
		refs := make([]sketch.Result, len(members))
		engs := make([]sketch.Result, len(members))
		for i, m := range members {
			if refs[i], engs[i], err = solo(m); err != nil {
				return fmt.Errorf("group %d: %w", gi, err)
			}
		}
		// Topology 1: reference fold of the composite.
		mref, err := reference(multi, tables)
		if err != nil {
			return fmt.Errorf("group %d: batched reference: %w", gi, err)
		}
		if err := membersIdentical(mref, refs, members); err != nil {
			return fmt.Errorf("group %d: batched reference vs solo reference: %w", gi, err)
		}
		// Topology 2: the parallel engine, one accumulator per partition.
		meng, err := local.Sketch(ctx, multi, nil)
		if err != nil {
			return fmt.Errorf("group %d: batched engine: %w", gi, err)
		}
		if err := membersIdentical(meng, engs, members); err != nil {
			return fmt.Errorf("group %d: batched engine vs solo engine: %w", gi, err)
		}
		for i, m := range members {
			if _, ok := m.(*sketch.MetaSketch); !ok {
				continue
			}
			if n := meng.(*sketch.MultiResult).Members[i].(*sketch.TableMeta).Leaves; n != len(tables) {
				return fmt.Errorf("group %d: batched MetaSketch counts %d leaves over %d partitions", gi, n, len(tables))
			}
		}
	}

	// Topology 3: the scheduler — distinct cacheable queries gathered
	// behind a busy dataset, with mid-batch cancellation of one member,
	// then the same queries submitted as one group.
	if err := runSchedulerBatched(ctx, seed, tables, local, eligible); err != nil {
		return fmt.Errorf("seed %d scheduler: %w", seed, err)
	}
	return nil
}

// membersIdentical demands got (a *sketch.MultiResult) match the solo
// results member for member, bit for bit.
func membersIdentical(got sketch.Result, want []sketch.Result, members []sketch.Sketch) error {
	mr, ok := got.(*sketch.MultiResult)
	if !ok {
		return fmt.Errorf("composite result is %T, want *sketch.MultiResult", got)
	}
	if len(mr.Members) != len(want) {
		return fmt.Errorf("composite has %d members, want %d", len(mr.Members), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(mr.Members[i], want[i]) {
			return fmt.Errorf("member %d (%s) differs from its solo run", i, members[i].Name())
		}
	}
	return nil
}

// gatedRunner counts underlying scans and optionally holds them at a
// gate, so tests can act while a batch is provably mid-execution. It
// runs them on an engine root, so a finished shared pass publishes its
// members to that root's computation cache.
type gatedRunner struct {
	root    *engine.Root
	calls   atomic.Int64
	started chan struct{} // buffered; signalled once per execution
	gate    chan struct{} // nil = run immediately
}

func (r *gatedRunner) RunSketch(ctx context.Context, _ string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	r.calls.Add(1)
	if r.started != nil {
		select {
		case r.started <- struct{}{}:
		default:
		}
	}
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return r.root.RunSketch(ctx, datasetID, sk, onPartial)
}

// runSchedulerBatched drives distinct cacheable queries through a
// Scheduler the two ways it shares a pass and checks each subscriber's
// stream and result against its solo engine run.
func runSchedulerBatched(ctx context.Context, seed uint64, tables []*table.Table, local *engine.LocalDataSet, eligible []sketch.Sketch) error {
	// Distinct cacheable sketches that declare their columns only:
	// identical keys dedup-join into one member, and a columnless sketch
	// (MetaSketch) never gathers; the serve package's own tests cover
	// both.
	seen := map[string]bool{}
	var cacheable []sketch.Sketch
	for _, sk := range eligible {
		if sketch.SketchColumns(sk) == nil {
			continue
		}
		if key, ok := engine.Key(datasetID, sk); ok && !seen[key] {
			seen[key] = true
			cacheable = append(cacheable, sk)
		}
	}
	if len(cacheable) < 4 {
		return fmt.Errorf("only %d distinct cacheable sketches; harness set too thin", len(cacheable))
	}
	// The last one is the blocker: in flight, it is what makes the
	// dataset busy, so the members behind it gather instead of starting.
	blocker := cacheable[len(cacheable)-1]
	cacheable = cacheable[:len(cacheable)-1]
	size := 3
	if len(cacheable) < 5 {
		size = len(cacheable)
	} else if seed%2 == 0 {
		size = 5
	}
	members := cacheable[:size]
	soloEng := make([]sketch.Result, size)
	for i, m := range members {
		var err error
		if soloEng[i], err = local.Sketch(ctx, m, nil); err != nil {
			return fmt.Errorf("solo engine %s: %w", m.Name(), err)
		}
	}

	newStack := func() (*engine.Root, *gatedRunner, *serve.Scheduler, error) {
		root := engine.NewRoot(func(string, string) (engine.IDataSet, error) { return local, nil })
		if _, err := root.Load(datasetID, "mem"); err != nil {
			return nil, nil, nil, err
		}
		// started holds a token for every execution the schedule can see.
		run := &gatedRunner{root: root, started: make(chan struct{}, size+2), gate: make(chan struct{})}
		return root, run, serve.New(run, serve.Config{MaxInFlight: 4, Deadline: -1, BatchWindow: 500 * time.Millisecond}), nil
	}
	root, run, sched, err := newStack()
	if err != nil {
		return err
	}
	awaitStart := func(what string) error {
		select {
		case <-run.started:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%s never started executing", what)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var blockerErr error
	go func() {
		defer wg.Done()
		_, blockerErr = sched.RunSketch(ctx, datasetID, blocker, nil)
	}()
	if err := awaitStart("blocker"); err != nil {
		return err
	}

	cancelCtx, cancelMember := context.WithCancel(ctx)
	defer cancelMember()
	results := make([]sketch.Result, size)
	errs := make([]error, size)
	logs := make([]*partialLog, size)
	memberDone := make(chan struct{})
	for i, m := range members {
		logs[i] = &partialLog{}
		wg.Add(1)
		go func(i int, m sketch.Sketch) {
			defer wg.Done()
			mctx := ctx
			if i == 0 {
				mctx = cancelCtx
				defer close(memberDone)
			}
			results[i], errs[i] = sched.RunSketch(mctx, datasetID, m, logs[i].add)
		}(i, m)
	}

	// The gate holds every scan; the next one to signal started is the
	// batch (or a straggler's own flight): the window has closed.
	if err := awaitStart("batch"); err != nil {
		return err
	}
	// Cancel member 0 mid-batch, and wait for it to detach before
	// releasing the gate so the cancellation provably happened mid-scan.
	cancelMember()
	select {
	case <-memberDone:
	case <-ctx.Done():
		return fmt.Errorf("cancelled member never returned")
	}
	close(run.gate)
	wg.Wait()

	if blockerErr != nil {
		return fmt.Errorf("blocker %s: %w", blocker.Name(), blockerErr)
	}
	if !errors.Is(errs[0], context.Canceled) {
		return fmt.Errorf("cancelled member returned %v, want context.Canceled", errs[0])
	}
	st := sched.Stats()
	// The pass also published its members to the computation cache with
	// the bits of their solo runs — the cancelled member too, when it
	// shared the pass (every member counted in it): abandoning it did not
	// stop its fold, so its slot is whole. Alone in a flight of its own it
	// would have been the last member gone, and its scan cancelled.
	for i := 0; i < size; i++ {
		if i > 0 {
			if errs[i] != nil {
				return fmt.Errorf("member %d (%s): %w", i, members[i].Name(), errs[i])
			}
			if !reflect.DeepEqual(results[i], soloEng[i]) {
				return fmt.Errorf("member %d (%s): scheduler-batched result differs from solo engine run", i, members[i].Name())
			}
			if err := logs[i].verify(len(tables), results[i], true); err != nil {
				return fmt.Errorf("member %d (%s) partial stream: %w", i, members[i].Name(), err)
			}
		}
		pub, ok := root.Cached(ctx, datasetID, members[i], nil)
		if !ok && (i > 0 || st.BatchMembers == int64(size)) {
			return fmt.Errorf("member %d (%s): finished in a batch but was not published to the cache", i, members[i].Name())
		}
		if ok && !reflect.DeepEqual(pub, soloEng[i]) {
			return fmt.Errorf("member %d (%s): published result differs from solo engine run", i, members[i].Name())
		}
	}
	if st.BatchesFormed < 1 {
		return fmt.Errorf("no batch formed (members %d, stats %+v)", size, st)
	}
	if st.BatchMembers < 2 {
		return fmt.Errorf("batch too small: %d members recorded", st.BatchMembers)
	}

	// The same members as one group, on a fresh stack (nothing cached):
	// one query, one pass at once — the window is never waited out — and
	// one stream of composite partials ending in the composite result.
	root, run, sched, err = newStack()
	if err != nil {
		return err
	}
	close(run.gate)
	group, err := sketch.NewMultiSketch(members...)
	if err != nil {
		return err
	}
	glog := &partialLog{}
	res, err := sched.RunSketch(ctx, datasetID, group, glog.add)
	if err != nil {
		return fmt.Errorf("grouped submission: %w", err)
	}
	if err := membersIdentical(res, soloEng, members); err != nil {
		return fmt.Errorf("grouped submission vs solo engine: %w", err)
	}
	if err := glog.verify(len(tables), res, true); err != nil {
		return fmt.Errorf("grouped submission partial stream: %w", err)
	}
	for i, m := range members {
		if pub, ok := root.Cached(ctx, datasetID, m, nil); !ok || !reflect.DeepEqual(pub, soloEng[i]) {
			return fmt.Errorf("member %d (%s): ran in a group but its solo result is not in the cache (cached=%v)", i, m.Name(), ok)
		}
	}
	if st := sched.Stats(); run.calls.Load() != 1 || st.BatchMembers != int64(size) {
		return fmt.Errorf("grouped submission: %d scans, %d batch members, want 1 and %d", run.calls.Load(), st.BatchMembers, size)
	}
	return nil
}
