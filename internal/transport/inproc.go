package transport

import (
	"fmt"
	"sync"
)

// Fabric is an in-process loopback interconnect: n endpoints that deliver
// frames to each other through unbounded per-endpoint queues. Each
// endpoint's frames are delivered by a single goroutine, so delivery order
// matches send order for every node pair, mirroring a TCP stream without
// sockets. It exists for deterministic multi-node tests.
type Fabric struct {
	eps []*inprocEndpoint
}

// NewFabric creates a fabric of n endpoints.
func NewFabric(n int) *Fabric {
	if n <= 0 {
		panic("transport: fabric needs at least one node")
	}
	f := &Fabric{eps: make([]*inprocEndpoint, n)}
	for i := range f.eps {
		f.eps[i] = &inprocEndpoint{fab: f, self: i, notify: make(chan struct{}, 1), done: make(chan struct{})}
	}
	return f
}

// Node returns endpoint i of the fabric.
func (f *Fabric) Node(i int) Transport {
	if i < 0 || i >= len(f.eps) {
		panic(fmt.Sprintf("transport: fabric node %d outside [0,%d)", i, len(f.eps)))
	}
	return f.eps[i]
}

type inprocFrame struct {
	from  int
	frame []byte
	hello bool // a peer hello payload, delivered to the hello handler
}

type inprocEndpoint struct {
	fab  *Fabric
	self int

	mu      sync.Mutex
	queue   []inprocFrame
	handler Handler
	hello   []byte
	onHello func(node int, payload []byte)
	started bool
	closed  bool

	notify chan struct{}
	done   chan struct{}
}

func (e *inprocEndpoint) Self() int  { return e.self }
func (e *inprocEndpoint) Nodes() int { return len(e.fab.eps) }

func (e *inprocEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.handler != nil {
		panic("transport: handler already set")
	}
	e.handler = h
}

// SetHello installs the payload announced to peers.
func (e *inprocEndpoint) SetHello(payload []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		panic("transport: SetHello after Start")
	}
	e.hello = payload
}

// SetHelloHandler installs the receiver for peer hellos.
func (e *inprocEndpoint) SetHelloHandler(h func(node int, payload []byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		panic("transport: SetHelloHandler after Start")
	}
	e.onHello = h
}

func (e *inprocEndpoint) Start() error {
	e.mu.Lock()
	if e.handler == nil {
		e.mu.Unlock()
		return fmt.Errorf("transport: node %d started without a handler", e.self)
	}
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.started {
		e.mu.Unlock()
		return nil
	}
	e.started = true
	hello := e.hello
	e.mu.Unlock()
	go e.deliver()
	// Exchange hellos with peers that already started (endpoints starting
	// later push both directions themselves). Queued like frames, a hello
	// is delivered before any frame this endpoint sends afterwards —
	// mirroring the TCP handshake ordering. Both queues are appended
	// under both endpoints' locks (taken in index order, so concurrent
	// Starts cannot deadlock): the moment one side can observe the
	// other's hello — and start sending frames that depend on it, such as
	// interned parcels — its own hello is already queued ahead of them at
	// the peer. When two endpoints start concurrently both may push the
	// exchange; hello handlers are idempotent by contract, so the
	// duplicate is harmless.
	for _, o := range e.fab.eps {
		if o == e {
			continue
		}
		first, second := e, o
		if o.self < e.self {
			first, second = o, e
		}
		first.mu.Lock()
		second.mu.Lock()
		exchanged := o.started
		if exchanged {
			o.queue = append(o.queue, inprocFrame{from: e.self, frame: hello, hello: true})
			e.queue = append(e.queue, inprocFrame{from: o.self, frame: o.hello, hello: true})
		}
		second.mu.Unlock()
		first.mu.Unlock()
		if exchanged {
			o.poke()
			e.poke()
		}
	}
	return nil
}

// poke nudges the delivery goroutine.
func (e *inprocEndpoint) poke() {
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

func (e *inprocEndpoint) Send(node int, frame []byte) error {
	if err := checkNode(e, node); err != nil {
		return err
	}
	if len(frame) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", len(frame), MaxFrame)
	}
	dst := e.fab.eps[node]
	// The receiver owns its copy; the sender may reuse frame immediately,
	// exactly as with a socket write.
	cp := append([]byte(nil), frame...)
	dst.mu.Lock()
	if dst.closed || !dst.started {
		dst.mu.Unlock()
		return fmt.Errorf("transport: node %d unreachable", node)
	}
	dst.queue = append(dst.queue, inprocFrame{from: e.self, frame: cp})
	dst.mu.Unlock()
	dst.poke()
	return nil
}

func (e *inprocEndpoint) deliver() {
	defer close(e.done)
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			closed := e.closed
			e.mu.Unlock()
			if closed {
				return
			}
			<-e.notify
			continue
		}
		it := e.queue[0]
		e.queue = e.queue[1:]
		h := e.handler
		oh := e.onHello
		e.mu.Unlock()
		if it.hello {
			if oh != nil {
				oh(it.from, it.frame)
			}
			continue
		}
		h(it.from, it.frame)
	}
}

func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		started := e.started
		e.mu.Unlock()
		if started {
			<-e.done
		}
		return nil
	}
	e.closed = true
	e.queue = nil
	started := e.started
	e.mu.Unlock()
	select {
	case e.notify <- struct{}{}:
	default:
	}
	if started {
		<-e.done
	}
	return nil
}
