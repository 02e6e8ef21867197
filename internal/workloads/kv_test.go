package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
)

func newKVRuntime(t *testing.T, locs, admitLimit int) *core.Runtime {
	t.Helper()
	rt := core.New(core.Config{
		Localities:         locs,
		WorkersPerLocality: 2,
		AdmitLimit:         admitLimit,
		Register:           RegisterKVService,
	})
	t.Cleanup(rt.Shutdown)
	InstallKVShards(rt)
	return rt
}

func TestKVPutGetRoundTrip(t *testing.T) {
	rt := newKVRuntime(t, 4, 0)
	key := "kv.roundtrip"
	dest := KVShardGID(KVKeyLocality(key, rt.Localities()))

	put := parcel.NewArgs().String(key).Bytes([]byte("hello")).Encode()
	if v, err := rt.CallFrom(0, dest, ActionKVPut, put).Get(); err != nil {
		t.Fatalf("put: %v", err)
	} else if n, ok := v.(int64); !ok || n != 5 {
		t.Fatalf("put result %v (%T), want int64 5", v, v)
	}

	get := parcel.NewArgs().String(key).Encode()
	v, err := rt.CallFrom(0, dest, ActionKVGet, get).Get()
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got, ok := v.([]byte); !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("get result %q (%T), want %q", v, v, "hello")
	}

	// A miss returns an empty value, not an error, and counts as a miss.
	miss := parcel.NewArgs().String("kv.absent").Encode()
	destMiss := KVShardGID(KVKeyLocality("kv.absent", rt.Localities()))
	if v, err := rt.CallFrom(0, destMiss, ActionKVGet, miss).Get(); err != nil {
		t.Fatalf("miss get: %v", err)
	} else if got, ok := v.([]byte); !ok && v != nil || len(got) != 0 {
		t.Fatalf("miss result %v, want empty", v)
	}

	snap := rt.Metrics().Snapshot()
	if snap["px.serve.gets"] != 2 || snap["px.serve.puts"] != 1 {
		t.Fatalf("gets=%v puts=%v, want 2 and 1", snap["px.serve.gets"], snap["px.serve.puts"])
	}
	if snap["px.serve.hits"] != 1 || snap["px.serve.misses"] != 1 {
		t.Fatalf("hits=%v misses=%v, want 1 and 1", snap["px.serve.hits"], snap["px.serve.misses"])
	}
}

// TestKVGetSeesWholePuts races puts and gets on one key. Get returns the
// stored slice itself, which is sound only because a stored value is never
// mutated: every get must read exactly one of the values put, byte for
// byte, even though each putter scribbles over its argument record the
// moment its put returns (a shard that kept an alias to it would serve the
// scribble). Run it under -race to catch an in-place update.
func TestKVGetSeesWholePuts(t *testing.T) {
	const (
		putters, getters = 4, 4
		perPutter        = 200
		valueBytes       = 64
	)
	rt := newKVRuntime(t, 2, 0)
	key := "kv.contended"
	dest := KVShardGID(KVKeyLocality(key, rt.Localities()))
	value := func(id uint64) []byte {
		v := make([]byte, valueBytes)
		binary.LittleEndian.PutUint64(v, id)
		for i := 8; i < valueBytes; i++ {
			v[i] = byte(id) ^ byte(i)
		}
		return v
	}
	put := func(src int, id uint64) error {
		args := parcel.NewArgs().String(key).Bytes(value(id)).Encode()
		_, err := rt.CallFrom(src, dest, ActionKVPut, args).Get()
		for i := range args {
			args[i] = 0xdd
		}
		return err
	}
	if err := put(0, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, putters+getters)
	for p := 0; p < putters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= perPutter; i++ {
				if err := put(p%2, uint64(p*perPutter+i)); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	var reads atomic.Int64
	var readers sync.WaitGroup
	for g := 0; g < getters; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			args := parcel.NewArgs().String(key).Encode()
			for {
				v, err := rt.CallFrom(g%2, dest, ActionKVGet, args).Get()
				if err != nil {
					errs <- err
					return
				}
				got, _ := v.([]byte)
				if len(got) != valueBytes {
					errs <- fmt.Errorf("get read %d bytes, want %d", len(got), valueBytes)
					return
				}
				id := binary.LittleEndian.Uint64(got)
				if id > putters*perPutter || !bytes.Equal(got, value(id)) {
					errs <- fmt.Errorf("get read a value no put wrote: %x", got)
					return
				}
				reads.Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reads.Load() < getters {
		t.Fatalf("%d gets completed, want at least %d", reads.Load(), getters)
	}
}

func TestOpenLoopServeHealthy(t *testing.T) {
	rt := newKVRuntime(t, 4, 0)
	res := RunOpenLoop(rt, OpenLoopConfig{
		Rate:     20000,
		Requests: 400,
		Timeout:  5 * time.Second,
	})
	if res.Lost != 0 || res.Failed != 0 || res.Rejected != 0 {
		t.Fatalf("lost=%d failed=%d rejected=%d, want all 0", res.Lost, res.Failed, res.Rejected)
	}
	if res.Completed != res.Issued {
		t.Fatalf("completed %d of %d issued", res.Completed, res.Issued)
	}
	if len(res.LatenciesNs) != res.Completed {
		t.Fatalf("%d latency samples for %d completions", len(res.LatenciesNs), res.Completed)
	}
	p50, p99, p999 := res.Percentiles()
	if p50 <= 0 || p99 < p50 || p999 < p99 {
		t.Fatalf("percentiles p50=%v p99=%v p999=%v", p50, p99, p999)
	}
}

func TestOpenLoopShedsUnderOverload(t *testing.T) {
	// One worker per locality, an admission limit of 1, and an arrival
	// burst that cannot drain: admission control must shed, every shed
	// must surface as a typed verdict (never a timeout), and every request
	// must end in a verdict — completed or rejected, none lost.
	//
	// Each locality's one worker is held in a sheddable action until the
	// first shed is counted. Until then a locality admits one request to
	// its queue and sheds the next, however the burst and the workers are
	// scheduled.
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	held := make(chan struct{})
	rt := core.New(core.Config{
		Localities:         2,
		WorkersPerLocality: 1,
		AdmitLimit:         1,
		Register: func(rt *core.Runtime) {
			RegisterKVService(rt)
			rt.MarkSheddable("test.hold")
			rt.MustRegisterAction("test.hold", func(*core.Context, any, *parcel.Reader) (any, error) {
				held <- struct{}{}
				<-release
				return nil, nil
			})
		},
	})
	t.Cleanup(rt.Shutdown)
	t.Cleanup(free) // runs first: a failed run must not leave the workers held
	InstallKVShards(rt)
	for loc := 0; loc < rt.Localities(); loc++ {
		rt.SendFrom(loc, parcel.New(KVShardGID(loc), "test.hold", nil))
		<-held
	}
	go func() {
		for rt.Sheds() == 0 {
			select {
			case <-release:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
		free()
	}()

	res := RunOpenLoop(rt, OpenLoopConfig{
		Rate:         1e7, // effectively an instantaneous burst
		Requests:     600,
		Retries:      2,
		RetryBackoff: 100 * time.Microsecond,
		Timeout:      5 * time.Second,
	})
	if res.Shed == 0 {
		t.Fatal("overload run shed nothing")
	}
	if res.Lost != 0 || res.TimedOut != 0 || res.Failed != 0 {
		t.Fatalf("lost=%d timedout=%d failed=%d, want all 0", res.Lost, res.TimedOut, res.Failed)
	}
	if res.Completed+res.Rejected != res.Issued {
		t.Fatalf("completed %d + rejected %d != issued %d", res.Completed, res.Rejected, res.Issued)
	}
	if sheds := rt.Sheds(); sheds == 0 {
		t.Fatalf("runtime sheds = %d, want > 0", sheds)
	}
	if snap := rt.Metrics().Snapshot(); snap["px.sched.sheds"] == 0 {
		t.Fatal("px.sched.sheds not bridged")
	}
}
