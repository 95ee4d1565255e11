package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"actop/internal/codec"
)

// TCP is a Transport over real sockets, built for message throughput:
//
//   - Envelopes travel as hand-rolled length-prefixed binary frames (see
//     frame.go) — no reflection, no per-message gob type descriptors.
//   - Each peer has one lazily dialed connection drained by a dedicated
//     writer goroutine over a buffered FrameWriter. Senders enqueue and
//     return; the writer flushes only when the outbound queue is empty, so
//     bursts of messages coalesce into single syscalls.
//   - Each inbound connection has one read loop that decodes frames and
//     runs the handler inline. The read loop is the receive stage of the
//     runtime's pipeline, so handlers must not block: anything slow has to
//     be handed to a goroutine of its own.
//
// Node ids are the listen addresses, so peers need no separate name
// service.
//
// Error semantics: a dial failure surfaces as ErrUnreachable from Send (the
// address is known, the peer is not reachable right now), and a full peer
// queue as ErrQueueFull. A write failure on an established connection
// redials once and retransmits; only write failures trigger redials.
// Handlers must not call Close (Close waits for in-flight handler
// invocations to return).
type TCP struct {
	id       NodeID
	listener net.Listener

	handler atomic.Pointer[Handler]

	// mu guards peers, inbound and closed. Every Send looks its peer up,
	// from whichever goroutine sends, so the lookup takes it shared.
	mu      sync.RWMutex
	peers   map[NodeID]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool

	closeCh chan struct{}
	wg      sync.WaitGroup
}

// outboundQueueCap bounds each peer's send queue; Send on a full queue
// fails with ErrQueueFull instead of waiting (load shedding — a stalled
// peer must not stall its senders).
const outboundQueueCap = 1024

// envPool recycles the sender-side envelope copies between Send and the
// writer goroutine: Send takes one, the writer returns it after encoding.
// The pooled struct never carries live references out (it is zeroed before
// Put), and the caller's payload slice is only read, never retained, once
// the frame bytes are built.
var envPool = sync.Pool{New: func() interface{} { return new(Envelope) }}

func recycleEnvelope(e *Envelope) {
	*e = Envelope{}
	envPool.Put(e)
}

// tcpPeer is one outbound connection: a bounded envelope queue drained by
// a writer goroutine.
type tcpPeer struct {
	to   NodeID
	ch   chan *Envelope
	dead chan struct{} // closed when the writer gives up; senders retry

	mu     sync.Mutex
	conn   net.Conn // current socket; swapped on redial, slammed by Close
	closed bool
}

// setConn installs a fresh socket, unless the peer was closed meanwhile.
func (p *tcpPeer) setConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = c
	return true
}

// closeConn tears the peer down, unblocking a writer stuck in a syscall.
func (p *tcpPeer) closeConn() {
	p.mu.Lock()
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
}

// ListenTCP starts a node listening on addr ("host:port"; ":0" picks a free
// port). The node's id is its actual listen address.
func ListenTCP(addr string) (*TCP, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		id:       NodeID(l.Addr().String()),
		listener: l,
		peers:    make(map[NodeID]*tcpPeer),
		inbound:  make(map[net.Conn]struct{}),
		closeCh:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Node reports the listen address.
func (t *TCP) Node() NodeID { return t.id }

// SetHandler installs the inbound consumer.
func (t *TCP) SetHandler(h Handler) { t.handler.Store(&h) }

// --- inbound path ---

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one connection and runs the handler on each
// envelope in turn. Once Close has begun, decoded envelopes are dropped, so
// no handler invocation starts after Close returns.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	fr := codec.NewFrameReader(conn)
	in := newInterner()
	for {
		frame, err := fr.ReadFrame()
		if err != nil {
			return
		}
		env, err := decodeEnvelope(frame, in)
		if err != nil {
			return // corrupt stream: drop the connection
		}
		select {
		case <-t.closeCh:
			return
		default:
		}
		if h := t.handler.Load(); h != nil {
			(*h)(env)
		}
	}
}

// --- outbound path ---

// Send enqueues env for the peer listening at `to`, dialing on first use.
// It returns once the envelope is queued (the writer goroutine owns the
// socket) and never waits for the writer: a full queue returns
// ErrQueueFull. A dial failure returns ErrUnreachable. If the peer's writer
// died of a write failure, Send drops the dead peer and retries once
// through a fresh dial.
func (t *TCP) Send(to NodeID, env *Envelope) error {
	cp := envPool.Get().(*Envelope)
	*cp = *env
	cp.From = t.id
	for attempt := 0; attempt < 2; attempt++ {
		p, err := t.peer(to)
		if err != nil {
			recycleEnvelope(cp)
			return err
		}
		// Non-blocking channel operations only: a select over several
		// channels would lock them all, and closeCh is shared by every
		// sender of this transport.
		select {
		case <-p.dead:
			// The writer hit a write error and gave up; forget this peer
			// and redial (write failures are the only redial trigger).
			t.dropPeer(to, p)
			continue
		default:
		}
		select {
		case p.ch <- cp:
			return nil // the writer owns cp now and recycles it
		default:
		}
		recycleEnvelope(cp)
		select {
		case <-t.closeCh:
			return ErrClosed
		default:
			return fmt.Errorf("%w: %s", ErrQueueFull, to)
		}
	}
	recycleEnvelope(cp)
	return fmt.Errorf("transport: send to %s failed after redial", to)
}

// peer returns the outbound peer for `to`, dialing and starting its writer
// on first use.
func (t *TCP) peer(to NodeID) (*tcpPeer, error) {
	t.mu.RLock()
	closed := t.closed
	p, ok := t.peers[to]
	t.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return p, nil
	}

	conn, err := net.Dial("tcp", string(to))
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
	}
	p = &tcpPeer{
		to:   to,
		ch:   make(chan *Envelope, outboundQueueCap),
		dead: make(chan struct{}),
		conn: conn,
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.peers[to]; ok {
		t.mu.Unlock()
		conn.Close() // lost the race; reuse the winner
		return existing, nil
	}
	t.peers[to] = p
	t.wg.Add(1)
	t.mu.Unlock()
	go t.writeLoop(p)
	return p, nil
}

func (t *TCP) dropPeer(to NodeID, p *tcpPeer) {
	t.mu.Lock()
	if t.peers[to] == p {
		delete(t.peers, to)
	}
	t.mu.Unlock()
	p.closeConn()
}

// writeLoop drains one peer's queue: encode into a pooled buffer, write
// through the buffered FrameWriter, and flush only when the queue is empty
// so consecutive messages share a flush (and a syscall).
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	defer p.closeConn()
	fw := codec.NewFrameWriter(p.conn)
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	for {
		select {
		case <-t.closeCh:
			fw.Flush() // best effort on shutdown
			return
		case env := <-p.ch:
			buf = appendEnvelope(buf[:0], env)
			recycleEnvelope(env) // frame bytes built; the copy is dead
			var err error
			if fw, err = t.writeFrame(p, fw, buf); err != nil {
				close(p.dead)
				t.dropPeer(p.to, p)
				return
			}
		}
	}
}

// writeFrame writes one frame, flushing when the queue is drained. On a
// write failure it redials once and retransmits the frame on the fresh
// connection (returning the new writer); a failed redial propagates the
// original write error.
func (t *TCP) writeFrame(p *tcpPeer, fw *codec.FrameWriter, frame []byte) (*codec.FrameWriter, error) {
	err := fw.WriteFrame(frame)
	if err == nil && len(p.ch) == 0 {
		err = fw.Flush()
	}
	if err == nil {
		return fw, nil
	}
	select {
	case <-t.closeCh:
		return fw, err // shutting down: don't redial
	default:
	}
	conn, derr := net.Dial("tcp", string(p.to))
	if derr != nil {
		return fw, err
	}
	if !p.setConn(conn) {
		return fw, err // peer was closed while redialing
	}
	nfw := codec.NewFrameWriter(conn)
	if werr := nfw.WriteFrame(frame); werr != nil {
		return nfw, werr
	}
	if len(p.ch) == 0 {
		if werr := nfw.Flush(); werr != nil {
			return nfw, werr
		}
	}
	return nfw, nil
}

// Close shuts the listener and all connections, then waits for every
// read/write goroutine — including any in-flight handler invocation — to
// finish.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return nil
	}
	t.closed = true
	peers := t.peers
	t.peers = map[NodeID]*tcpPeer{}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	close(t.closeCh)
	t.listener.Close()
	for _, p := range peers {
		p.closeConn()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
