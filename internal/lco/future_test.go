package lco

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSetGetReady_Parallel: 1,024 readers race one Set through the
// lock-free read side — TryGet, Resolved, and a select on Done — and none
// sees the future resolved without its value.
func TestSetGetReady_Parallel(t *testing.T) {
	const readers = 1024
	want := new(int) // a torn read would show nil
	f := NewFuture()
	var start, end sync.WaitGroup
	start.Add(readers + 1)
	end.Add(readers)
	go func() {
		start.Done()
		start.Wait()
		if err := f.Set(want); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer end.Done()
			start.Done()
			start.Wait()
			for {
				if v, err, ok := f.TryGet(); ok {
					if v != want || err != nil {
						t.Errorf("reader %d: TryGet = %v, %v, true; want the set value", i, v, err)
					}
					return
				}
				switch i % 3 {
				case 0:
					<-f.Done()
					if !f.Resolved() {
						t.Errorf("reader %d: Done closed on an unresolved future", i)
						return
					}
				case 1:
					if f.Resolved() {
						if v, _, ok := f.TryGet(); !ok || v != want {
							t.Errorf("reader %d: Resolved, then TryGet = %v, %v", i, v, ok)
							return
						}
					}
				default:
					runtime.Gosched()
				}
			}
		}(i)
	}
	end.Wait()
}

// TestResolvedDoneIsClosedAndShared: a resolved future's Done is closed
// and is one of closedDones, picked by the future's address — the same
// channel every time for one future, and not one channel for all.
func TestResolvedDoneIsClosedAndShared(t *testing.T) {
	picked := make(map[<-chan struct{}]bool)
	for i := 0; i < 256; i++ {
		f := NewFuture()
		pending := f.Done()
		_ = f.Set(i)
		select {
		case <-pending:
		default:
			t.Fatal("Done made while pending was not closed by Set")
		}
		d := f.Done()
		select {
		case <-d:
		default:
			t.Fatal("resolved future's Done is open")
		}
		if d != f.Done() {
			t.Fatal("one resolved future handed out two channels")
		}
		picked[d] = true
	}
	if len(picked) < 2 {
		t.Fatalf("256 resolved futures share %d Done channel(s)", len(picked))
	}
}

// BenchmarkFutureDoneResolved selects on the Done of resolved futures
// under b.RunParallel, each goroutine over futures of its own, as a call
// loop waiting on futures that resolved before the call returned does.
// It allocates nothing, and -cpu 2 is no slower per op than -cpu 1: the
// goroutines share no lock and no channel, save by chance. Give it a
// -benchtime in seconds, not a count: from a count RunParallel sizes its
// batches off a one-iteration probe, and pb.Next's shared counter then
// dominates.
func BenchmarkFutureDoneResolved(b *testing.B) {
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var futs [64]*Future
		for i := range futs {
			futs[i] = NewFuture()
			_ = futs[i].Set(next.Add(1))
		}
		never := make(chan struct{})
		for i := 0; pb.Next(); i++ {
			select {
			case <-futs[i%len(futs)].Done():
			case <-never:
			}
		}
	})
}
