package jobs

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingTask returns a task whose Run blocks until release is closed (or
// its ctx is canceled), recording concurrency in running/maxRunning.
func blockingTask(workers int, release <-chan struct{}, running, maxRunning *atomic.Int64) Task {
	return Task{
		Kind:    "test",
		Workers: workers,
		Run: func(ctx context.Context, granted int, report func(any)) (any, error) {
			n := running.Add(1)
			for {
				old := maxRunning.Load()
				if n <= old || maxRunning.CompareAndSwap(old, n) {
					break
				}
			}
			defer running.Add(-1)
			select {
			case <-release:
				return granted, nil
			case <-ctx.Done():
				return granted, ctx.Err()
			}
		},
	}
}

func waitStatus(t *testing.T, j *Job, want Status) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if j.View().Status == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck at %s, want %s", j.ID(), j.View().Status, want)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestBudgetNeverExceeded submits more demand than the budget and checks
// the scheduler's worker accounting (InUse) and the actual number of
// concurrently running tasks both respect the global budget.
func TestBudgetNeverExceeded(t *testing.T) {
	s := New(Options{Budget: 4, QueueCap: 32})
	defer s.Close()
	release := make(chan struct{})
	var running, maxRunning atomic.Int64
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(blockingTask(2, release, &running, &maxRunning))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// 4 budget / 2 workers each → exactly 2 jobs admitted.
	waitStatus(t, jobs[0], StatusRunning)
	waitStatus(t, jobs[1], StatusRunning)
	if got := s.InUse(); got != 4 {
		t.Errorf("InUse = %d, want 4", got)
	}
	if got := jobs[2].View().Status; got != StatusQueued {
		t.Errorf("job 3 status = %s, want queued", got)
	}
	if got := s.QueueLen(); got != 4 {
		t.Errorf("QueueLen = %d, want 4", got)
	}
	close(release)
	for _, j := range jobs {
		<-j.Done()
		if res, err := j.Result(); err != nil || res.(int) != 2 {
			t.Errorf("job %s result = %v, %v", j.ID(), res, err)
		}
	}
	if got := maxRunning.Load(); got > 2 {
		t.Errorf("max concurrent jobs = %d, want <= 2 (budget 4, 2 workers each)", got)
	}
	if got := s.InUse(); got != 0 {
		t.Errorf("InUse after drain = %d", got)
	}
}

// TestFIFONoSkipping checks a small job cannot starve a large job waiting
// at the head of the queue.
func TestFIFONoSkipping(t *testing.T) {
	s := New(Options{Budget: 4, QueueCap: 8})
	defer s.Close()
	var running, maxRunning atomic.Int64
	relA := make(chan struct{})
	a, _ := s.Submit(blockingTask(3, relA, &running, &maxRunning))
	waitStatus(t, a, StatusRunning)

	relB := make(chan struct{})
	b, _ := s.Submit(blockingTask(4, relB, &running, &maxRunning)) // needs full budget
	relC := make(chan struct{})
	c, _ := s.Submit(blockingTask(1, relC, &running, &maxRunning)) // would fit now

	time.Sleep(20 * time.Millisecond)
	if got := b.View().Status; got != StatusQueued {
		t.Fatalf("b = %s, want queued", got)
	}
	if got := c.View().Status; got != StatusQueued {
		t.Fatalf("c = %s, want queued (FIFO: must not skip b)", got)
	}

	close(relA)
	waitStatus(t, b, StatusRunning)
	if got := s.InUse(); got != 4 {
		t.Errorf("InUse with b running = %d", got)
	}
	close(relB)
	waitStatus(t, c, StatusRunning)
	close(relC)
	<-c.Done()
}

// TestCancelQueuedHeadUnblocksQueue checks liveness: canceling a large
// job waiting at the queue head immediately admits the smaller jobs
// behind it, without waiting for an unrelated scheduler event.
func TestCancelQueuedHeadUnblocksQueue(t *testing.T) {
	s := New(Options{Budget: 4, QueueCap: 8})
	defer s.Close()
	var running, maxRunning atomic.Int64
	relA := make(chan struct{})
	defer close(relA)
	a, _ := s.Submit(blockingTask(2, relA, &running, &maxRunning))
	waitStatus(t, a, StatusRunning)

	relB := make(chan struct{})
	defer close(relB)
	b, _ := s.Submit(blockingTask(4, relB, &running, &maxRunning)) // blocked head
	relC := make(chan struct{})
	defer close(relC)
	c, _ := s.Submit(blockingTask(1, relC, &running, &maxRunning)) // fits, behind b

	time.Sleep(10 * time.Millisecond)
	if got := c.View().Status; got != StatusQueued {
		t.Fatalf("c = %s before cancel, want queued (FIFO)", got)
	}
	if !s.Cancel(b.ID()) {
		t.Fatal("Cancel(b) = false")
	}
	// c must start without anything else finishing or being submitted.
	waitStatus(t, c, StatusRunning)
}

// TestQueueFull checks the 429 path: a full queue rejects fast.
func TestQueueFull(t *testing.T) {
	s := New(Options{Budget: 1, QueueCap: 2})
	defer s.Close()
	release := make(chan struct{})
	defer close(release)
	var running, maxRunning atomic.Int64
	head, _ := s.Submit(blockingTask(1, release, &running, &maxRunning))
	waitStatus(t, head, StatusRunning)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(blockingTask(1, release, &running, &maxRunning)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(blockingTask(1, release, &running, &maxRunning)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// TestCancelQueuedAndRunning covers both cancel paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Options{Budget: 1, QueueCap: 8})
	defer s.Close()
	release := make(chan struct{})
	defer close(release)
	var running, maxRunning atomic.Int64
	a, _ := s.Submit(blockingTask(1, release, &running, &maxRunning))
	waitStatus(t, a, StatusRunning)
	b, _ := s.Submit(blockingTask(1, release, &running, &maxRunning))

	// Queued cancel: b never runs.
	if !s.Cancel(b.ID()) {
		t.Fatal("Cancel(queued) = false")
	}
	<-b.Done()
	if v := b.View(); v.Status != StatusCanceled || !v.Started.IsZero() {
		t.Errorf("b = %+v, want canceled before start", v)
	}
	if s.Cancel(b.ID()) {
		t.Error("second Cancel returned true")
	}

	// Running cancel: a's ctx fires, Run returns ctx.Err.
	if !s.Cancel(a.ID()) {
		t.Fatal("Cancel(running) = false")
	}
	<-a.Done()
	if got := a.View().Status; got != StatusCanceled {
		t.Errorf("a = %s, want canceled", got)
	}
	if _, err := a.Result(); !errors.Is(err, context.Canceled) {
		t.Errorf("a err = %v", err)
	}
	if got := s.InUse(); got != 0 {
		t.Errorf("InUse = %d after cancels", got)
	}
	// Neither cancelled job may leave its run goroutine behind.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancels, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTimeoutKeepsPartialResult checks a job cut by its own deadline ends
// as timeout and keeps the partial result its Run returned.
func TestTimeoutKeepsPartialResult(t *testing.T) {
	s := New(Options{Budget: 1})
	defer s.Close()
	j, err := s.Submit(Task{
		Kind:    "test",
		Workers: 1,
		Timeout: 10 * time.Millisecond,
		Run: func(ctx context.Context, _ int, _ func(any)) (any, error) {
			<-ctx.Done()
			return "partial", ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if got := j.View().Status; got != StatusTimeout {
		t.Fatalf("status = %s, want timeout", got)
	}
	if res, err := j.Result(); res != "partial" || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("result = %v, %v", res, err)
	}
}

// TestProgressReports checks mid-run reports surface through View.
func TestProgressReports(t *testing.T) {
	s := New(Options{Budget: 1})
	defer s.Close()
	reported := make(chan struct{})
	release := make(chan struct{})
	j, _ := s.Submit(Task{
		Kind:    "test",
		Workers: 1,
		Run: func(ctx context.Context, _ int, report func(any)) (any, error) {
			report("halfway")
			close(reported)
			<-release
			return "full", nil
		},
	})
	<-reported
	if got := j.View().Progress; got != "halfway" {
		t.Errorf("progress = %v", got)
	}
	close(release)
	<-j.Done()
	if v := j.View(); v.Status != StatusDone || v.Result != "full" {
		t.Errorf("final view = %+v", v)
	}
}

// TestCloseCancelsEverything checks shutdown: queued jobs are canceled
// without running, running jobs see their context fire, and new submits
// are rejected.
func TestCloseCancelsEverything(t *testing.T) {
	s := New(Options{Budget: 1, QueueCap: 8})
	release := make(chan struct{})
	defer close(release)
	var running, maxRunning atomic.Int64
	a, _ := s.Submit(blockingTask(1, release, &running, &maxRunning))
	waitStatus(t, a, StatusRunning)
	b, _ := s.Submit(blockingTask(1, release, &running, &maxRunning))
	s.Close()
	<-a.Done()
	<-b.Done()
	if got := a.View().Status; got != StatusCanceled {
		t.Errorf("running job after Close = %s", got)
	}
	if got := b.View().Status; got != StatusCanceled {
		t.Errorf("queued job after Close = %s", got)
	}
	if _, err := s.Submit(Task{Run: func(context.Context, int, func(any)) (any, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v", err)
	}
}

// TestRetention checks terminal jobs are pruned beyond the cap while live
// jobs survive.
func TestRetention(t *testing.T) {
	s := New(Options{Budget: 2, QueueCap: 8, Retain: 2})
	defer s.Close()
	for i := 0; i < 5; i++ {
		j, err := s.Submit(Task{Run: func(context.Context, int, func(any)) (any, error) { return nil, nil }})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	// Everything is terminal; only the 2 newest should remain.
	views := s.Jobs()
	if len(views) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(views), views)
	}
	if !views[0].Created.Before(views[1].Created) && !views[0].Created.Equal(views[1].Created) {
		t.Errorf("Jobs not in submission order: %+v", views)
	}
}

// TestRemove checks terminal jobs can be deleted and live ones cannot.
func TestRemove(t *testing.T) {
	s := New(Options{Budget: 1})
	defer s.Close()
	release := make(chan struct{})
	var running, maxRunning atomic.Int64
	live, _ := s.Submit(blockingTask(1, release, &running, &maxRunning))
	waitStatus(t, live, StatusRunning)
	if s.Remove(live.ID()) {
		t.Error("removed a running job")
	}
	close(release)
	<-live.Done()
	if !s.Remove(live.ID()) {
		t.Error("Remove(terminal) = false")
	}
	if _, ok := s.Get(live.ID()); ok {
		t.Error("job still resolvable after Remove")
	}
}

// TestConcurrentSubmitters hammers the scheduler from many goroutines under
// the race detector and re-checks the budget invariant.
func TestConcurrentSubmitters(t *testing.T) {
	s := New(Options{Budget: 3, QueueCap: 1024})
	defer s.Close()
	var running, maxRunning atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := s.Submit(Task{
					Workers: 1 + (i % 3),
					Run: func(ctx context.Context, granted int, _ func(any)) (any, error) {
						n := running.Add(int64(granted))
						for {
							old := maxRunning.Load()
							if n <= old || maxRunning.CompareAndSwap(old, n) {
								break
							}
						}
						defer running.Add(int64(-granted))
						time.Sleep(time.Duration(i%3) * time.Millisecond)
						return nil, nil
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					s.Cancel(j.ID())
				}
			}
		}(g)
	}
	wg.Wait()
	// Drain: wait for every retained job to finish.
	for _, v := range s.Jobs() {
		if j, ok := s.Get(v.ID); ok {
			<-j.Done()
		}
	}
	if got := maxRunning.Load(); got > 3 {
		t.Errorf("peak granted workers = %d, exceeds budget 3", got)
	}
	if got := s.InUse(); got != 0 {
		t.Errorf("InUse after drain = %d", got)
	}
}

// TestSubmitDone covers the cache-hit admission path: the job is terminal
// immediately, carries its result, spent no budget, and still participates
// in retention.
func TestSubmitDone(t *testing.T) {
	s := New(Options{Budget: 1, Retain: 2})
	defer s.Close()
	job, err := s.SubmitDone(Task{Kind: "explain", Table: "t"}, "cached-result")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	default:
		t.Fatal("SubmitDone job not terminal at return")
	}
	if res, err := job.Result(); err != nil || res != "cached-result" {
		t.Fatalf("Result = %v, %v", res, err)
	}
	if v := job.View(); v.Status != StatusDone || !v.Started.IsZero() || v.Workers != 0 {
		t.Fatalf("view = %+v (must never have run)", v)
	}
	if s.InUse() != 0 || s.QueueLen() != 0 {
		t.Fatalf("budget touched: inUse=%d queue=%d", s.InUse(), s.QueueLen())
	}
	// REAL finished jobs must survive any flood of SubmitDone jobs — even
	// with the regular retention ring already AT its cap, where a single
	// extra entry would trigger eviction: instant jobs must never transit
	// that ring, not even transiently.
	run := func(context.Context, int, func(any)) (any, error) { return "searched", nil }
	var reals []*Job
	for i := 0; i < 2; i++ { // fill the ring to Retain=2 exactly
		r, err := s.Submit(Task{Run: run})
		if err != nil {
			t.Fatal(err)
		}
		<-r.Done()
		reals = append(reals, r)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.SubmitDone(Task{}, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reals {
		if _, ok := s.Get(r.ID()); !ok {
			t.Errorf("real finished job %s was evicted by SubmitDone flood", r.ID())
		}
	}
	// The instant ring itself is bounded by the same retention cap.
	if _, ok := s.Get(job.ID()); ok {
		t.Error("oldest SubmitDone job survived retention")
	}
	s.Close()
	if _, err := s.SubmitDone(Task{}, nil); err != ErrClosed {
		t.Errorf("SubmitDone after Close = %v, want ErrClosed", err)
	}
}

// TestQueuePosition: queued jobs report their 1-based admission position
// through Position, ViewOf and Jobs, and positions shift as the queue
// drains or queued jobs are canceled.
func TestQueuePosition(t *testing.T) {
	s := New(Options{Budget: 1, QueueCap: 8})
	defer s.Close()
	release := make(chan struct{})
	var running, maxRunning atomic.Int64

	first, err := s.Submit(blockingTask(1, release, &running, &maxRunning))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, first, StatusRunning)
	second, _ := s.Submit(blockingTask(1, release, &running, &maxRunning))
	third, _ := s.Submit(blockingTask(1, release, &running, &maxRunning))

	if got := s.Position(first.ID()); got != 0 {
		t.Errorf("running job position = %d, want 0", got)
	}
	if got := s.Position(second.ID()); got != 1 {
		t.Errorf("second position = %d, want 1", got)
	}
	if got := s.Position(third.ID()); got != 2 {
		t.Errorf("third position = %d, want 2", got)
	}
	if got := s.Position("job-unknown"); got != 0 {
		t.Errorf("unknown id position = %d", got)
	}

	// ViewOf carries the position only while queued.
	if v, ok := s.ViewOf(second.ID()); !ok || v.QueuePos != 1 || v.Status != StatusQueued {
		t.Errorf("ViewOf(second) = %+v", v)
	}
	if v, ok := s.ViewOf(first.ID()); !ok || v.QueuePos != 0 {
		t.Errorf("ViewOf(first).QueuePos = %d, want 0", v.QueuePos)
	}

	// Jobs fills QueuePos for the queued entries.
	for _, v := range s.Jobs() {
		want := 0
		switch v.ID {
		case second.ID():
			want = 1
		case third.ID():
			want = 2
		}
		if v.QueuePos != want {
			t.Errorf("Jobs view %s QueuePos = %d, want %d", v.ID, v.QueuePos, want)
		}
	}

	// Canceling the queue head promotes the job behind it.
	if !s.Cancel(second.ID()) {
		t.Fatal("cancel queued second failed")
	}
	if got := s.Position(third.ID()); got != 1 {
		t.Errorf("third position after cancel = %d, want 1", got)
	}

	close(release)
	<-first.Done()
	<-third.Done()
	if got := s.Position(third.ID()); got != 0 {
		t.Errorf("terminal job position = %d, want 0", got)
	}
}

// TestViewQueuedRunningSplit is the regression test for the
// queued_ms/running_ms split: a job stuck behind a full budget accrues
// queue wait with NO run time, a running job accrues live run time, and a
// finished job freezes both — queue wait must never bleed into run time.
func TestViewQueuedRunningSplit(t *testing.T) {
	s := New(Options{Budget: 1, QueueCap: 8})
	defer s.Close()
	release := make(chan struct{})
	var running, maxRunning atomic.Int64
	first, err := s.Submit(blockingTask(1, release, &running, &maxRunning))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, first, StatusRunning)
	second, err := s.Submit(blockingTask(1, release, &running, &maxRunning))
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(20 * time.Millisecond)
	v := second.View()
	if v.Status != StatusQueued {
		t.Fatalf("second job status = %s, want queued", v.Status)
	}
	if v.QueuedFor <= 0 {
		t.Errorf("queued job QueuedFor = %s, want > 0", v.QueuedFor)
	}
	if v.RanFor != 0 {
		t.Errorf("queued job RanFor = %s, want 0", v.RanFor)
	}

	rv := first.View()
	if rv.RanFor <= 0 {
		t.Errorf("running job RanFor = %s, want live elapsed > 0", rv.RanFor)
	}

	close(release)
	waitStatus(t, second, StatusDone)
	dv := second.View()
	if dv.QueuedFor <= 0 || dv.RanFor < 0 {
		t.Errorf("done job QueuedFor = %s RanFor = %s", dv.QueuedFor, dv.RanFor)
	}
	if dv.QueuedFor < v.QueuedFor {
		t.Errorf("final QueuedFor %s shrank below mid-queue reading %s", dv.QueuedFor, v.QueuedFor)
	}
	// Frozen once terminal: two views must agree.
	if dv2 := second.View(); dv2.QueuedFor != dv.QueuedFor || dv2.RanFor != dv.RanFor {
		t.Errorf("terminal view not frozen: %s/%s vs %s/%s", dv.QueuedFor, dv.RanFor, dv2.QueuedFor, dv2.RanFor)
	}
}
