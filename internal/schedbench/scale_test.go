package schedbench

import (
	"sync/atomic"
	"testing"

	parallex "repro"
)

// BenchmarkCallFromLocalParallel makes node-local split-phase calls to a
// direct action under b.RunParallel, each goroutine on an object of its
// own: the call runs on the caller and resolves before CallFrom returns,
// so goroutines on different CPUs share no application state, and
// anything they do share is the runtime's. At -cpu 1,2 its 2-CPU ns/op is the
// scaling of that call path; perfect scaling halves it. Give it a
// -benchtime in seconds (see BenchmarkFutureDoneResolved in internal/lco).
// CI gates it: the minimum ns/op of three runs at -cpu 2 must not exceed
// the minimum at -cpu 1.
func BenchmarkCallFromLocalParallel(b *testing.B) {
	const touch = "schedbench.touch-direct"
	rt := parallex.New(parallex.Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Register: func(rt *parallex.Runtime) {
			rt.MarkDirect(touch)
			rt.MustRegisterAction(touch, func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
				return nil, nil
			})
		},
	})
	defer rt.Shutdown()
	objs := make([]parallex.GID, 64)
	for i := range objs {
		objs[i] = rt.NewDataAt(i%2, i)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1) - 1)
		obj, src := objs[i%len(objs)], i%2
		for pb.Next() {
			if _, err := rt.CallFrom(src, obj, touch, nil).Get(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	rt.Wait()
}
