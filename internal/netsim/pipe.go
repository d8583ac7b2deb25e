package netsim

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// segment is a chunk of bytes scheduled to become readable at a given time.
type segment struct {
	data []byte
	at   time.Time
}

// segQueue is one direction of a simulated connection: a time-ordered queue
// of segments written by the peer, plus close/abort/deadline state.
type segQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	segs     []segment
	closed   bool // peer closed: EOF after draining
	aborted  bool // connection reset: error immediately
	deadline time.Time
	timer    *time.Timer
	waiters  int // readers blocked in pop
}

func newSegQueue() *segQueue {
	q := &segQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

var errTimeout = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string   { return "netsim: i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// ErrAborted is returned from reads and writes on a connection that was
// killed via Conn.Abort (simulating a connection reset).
var ErrAborted = errors.New("netsim: connection aborted")

func (q *segQueue) push(data []byte, at time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.aborted {
		return
	}
	q.segs = append(q.segs, segment{data: data, at: at})
	q.cond.Broadcast()
}

// pop blocks until data is available and its arrival time has passed,
// the queue is closed/aborted, or the deadline expires. Data that has
// already arrived is delivered even when the deadline has passed: the
// deadline models a peer that stopped sending, so it must only interrupt
// reads that would otherwise block. Checking it against wall time before
// looking at arrived segments would turn scheduling hiccups of the
// simulation process itself (GC, a busy runtime under hundreds of
// simulated clients) into spurious timeouts that no real kernel, which
// buffers arriving bytes while the process is off-CPU, would produce.
func (q *segQueue) pop(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// A wake-up timer armed while waiting has no one left to wake once
	// pop returns and no other reader waits; stop it rather than let it
	// fire into an idle queue.
	defer func() {
		if q.waiters == 0 {
			q.stopTimer()
		}
	}()
	for {
		if q.aborted {
			return 0, ErrAborted
		}
		if len(q.segs) > 0 {
			seg := &q.segs[0]
			wait := time.Until(seg.at)
			if wait <= 0 {
				n := copy(p, seg.data)
				if n == len(seg.data) {
					q.segs = q.segs[1:]
				} else {
					seg.data = seg.data[n:]
				}
				return n, nil
			}
			if !q.deadline.IsZero() && !time.Now().Before(q.deadline) {
				return 0, errTimeout
			}
			// Data exists but has not "arrived" yet: sleep outside the
			// lock-free fast path by waking ourselves when it lands (or
			// when the deadline fires, whichever comes first).
			if !q.deadline.IsZero() {
				if d := time.Until(q.deadline); d < wait {
					wait = d
				}
			}
			q.wakeAfter(wait)
			q.wait()
			continue
		}
		if q.closed {
			return 0, io.EOF
		}
		if !q.deadline.IsZero() && !time.Now().Before(q.deadline) {
			return 0, errTimeout
		}
		if !q.deadline.IsZero() {
			q.wakeAfter(time.Until(q.deadline))
		}
		q.wait()
	}
}

// wakeAfter arranges a broadcast after d so waiters re-check state.
// Caller holds q.mu.
func (q *segQueue) wakeAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	q.stopTimer()
	q.timer = time.AfterFunc(d, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
}

// wait blocks on q.cond, counted in q.waiters. Caller holds q.mu.
func (q *segQueue) wait() {
	q.waiters++
	q.cond.Wait()
	q.waiters--
}

// stopTimer cancels a pending wakeAfter. Caller holds q.mu.
func (q *segQueue) stopTimer() {
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
}

func (q *segQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *segQueue) abort() {
	q.mu.Lock()
	q.aborted = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *segQueue) setDeadline(t time.Time) {
	q.mu.Lock()
	q.deadline = t
	q.cond.Broadcast()
	q.mu.Unlock()
}

// buffered reports the number of bytes queued (arrived or in flight).
func (q *segQueue) buffered() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, s := range q.segs {
		n += len(s.data)
	}
	return n
}

// Addr is the net.Addr implementation for simulated endpoints.
type Addr string

// Network returns "sim".
func (Addr) Network() string { return "sim" }

// String returns the simulated address.
func (a Addr) String() string { return string(a) }

// Conn is one endpoint of a simulated full-duplex connection.
// It implements net.Conn.
type Conn struct {
	recv *segQueue // what we read
	peer *segQueue // what the other side reads

	local, remote Addr

	sendMu sync.Mutex
	shaper shaper

	closeOnce sync.Once
	closed    chan struct{}

	writeDeadline atomicTime
}

type atomicTime struct {
	mu sync.Mutex
	t  time.Time
}

func (a *atomicTime) get() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.t
}

func (a *atomicTime) set(t time.Time) {
	a.mu.Lock()
	a.t = t
	a.mu.Unlock()
}

// newConnPair creates the two endpoints of a connection shaped by prof.
func newConnPair(prof Profile, client, server Addr) (*Conn, *Conn) {
	aq, bq := newSegQueue(), newSegQueue()
	now := time.Now()
	c := &Conn{
		recv: aq, peer: bq,
		local: client, remote: server,
		shaper: newShaper(prof, now),
		closed: make(chan struct{}),
	}
	s := &Conn{
		recv: bq, peer: aq,
		local: server, remote: client,
		shaper: newShaper(prof, now),
		closed: make(chan struct{}),
	}
	return c, s
}

// Read reads data written by the peer once its simulated arrival time has
// passed.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := c.recv.pop(p)
	if err != nil && err != io.EOF && err != ErrAborted {
		err = &net.OpError{Op: "read", Net: "sim", Addr: c.remote, Err: err}
	}
	return n, err
}

// Write schedules p for delivery to the peer after the shaped delay.
// The write itself returns immediately (models kernel send buffering).
func (c *Conn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, &net.OpError{Op: "write", Net: "sim", Addr: c.remote, Err: os.ErrClosed}
	default:
	}
	if d := c.writeDeadline.get(); !d.IsZero() && !time.Now().Before(d) {
		return 0, &net.OpError{Op: "write", Net: "sim", Addr: c.remote, Err: errTimeout}
	}
	if len(p) == 0 {
		return 0, nil
	}
	buf := make([]byte, len(p))
	copy(buf, p)
	c.sendMu.Lock()
	at := c.shaper.schedule(time.Now(), len(buf))
	c.sendMu.Unlock()
	c.peer.push(buf, at)
	return len(p), nil
}

// Close closes the connection; the peer observes EOF after draining
// in-flight data.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.peer.close()
		c.recv.close()
	})
	return nil
}

// Abort kills the connection immediately: both sides' pending and future
// I/O fails with ErrAborted. It models a connection reset / node crash.
func (c *Conn) Abort() {
	c.closeOnce.Do(func() { close(c.closed) })
	c.peer.abort()
	c.recv.abort()
}

// LocalAddr returns the simulated local address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the simulated remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.recv.setDeadline(t)
	c.writeDeadline.set(t)
	return nil
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.recv.setDeadline(t)
	return nil
}

// SetWriteDeadline sets the write deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.writeDeadline.set(t)
	return nil
}

// Buffered reports how many bytes are queued toward this endpoint,
// including bytes still "in flight". Useful in tests.
func (c *Conn) Buffered() int { return c.recv.buffered() }
