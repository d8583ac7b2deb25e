package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"godavix/internal/pool"
)

// errSiblingFailed is the cancellation cause forEachChunk stamps on its
// workers' context when one chunk fails and the rest must stop.
var errSiblingFailed = errors.New("davix: sibling chunk failed")

// settleGrace bounds how long a request already wholly on the wire may
// still wait for its answer after a sibling chunk failed. The server runs
// such a request whatever the client does; letting it be answered means a
// failed chunked transfer returns with none of its requests still pending
// at the server, instead of leaving a straggler to land afterwards.
const settleGrace = 250 * time.Millisecond

// reqGuard couples ctx cancellation to one request's connection.
// Connection I/O only honours deadlines, so a cancelled ctx (a settled
// hedge race, an abandoned transfer) would otherwise pin a round trip
// blocked writing the request or awaiting the response until the server
// answers. Once ctx is done the guard keeps the request off the wire and
// slams the connection deadline into the past, failing blocked I/O at
// once. The one exception is a sibling-chunk failure (errSiblingFailed)
// that finds the request already written: its answer is awaited for up
// to settleGrace. Every path that saw the hook fire must discard the
// connection rather than recycle it.
type reqGuard struct {
	ctx  context.Context
	conn *pool.Conn
	stop func() bool

	mu       sync.Mutex
	deadline time.Time // the standing deadline; zero when unbounded
	slammed  bool      // the hook failed the connection's I/O
	onWire   bool      // the whole request has been written
}

// guard arms conn's standing deadline from RequestTimeout and ctx, then
// installs the cancellation hook. The deadline goes first: armed after
// the hook, it could overwrite a slam the hook had already made.
func (c *Client) guard(ctx context.Context, conn *pool.Conn) (*reqGuard, error) {
	g := &reqGuard{ctx: ctx, conn: conn, deadline: c.deadlineFor(ctx)}
	if err := conn.NetConn().SetDeadline(g.deadline); err != nil {
		return nil, err
	}
	g.stop = context.AfterFunc(ctx, g.cancel)
	return g, nil
}

// cancel is the ctx hook.
func (g *reqGuard) cancel() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.onWire && g.settles() {
		g.conn.NetConn().SetReadDeadline(g.settleBy())
		return
	}
	g.slammed = true
	g.conn.NetConn().SetDeadline(time.Unix(1, 0))
}

// settles reports whether ctx ended because a sibling chunk failed.
func (g *reqGuard) settles() bool {
	return errors.Is(context.Cause(g.ctx), errSiblingFailed)
}

// settleBy is the read deadline of a settling request: settleGrace from
// now, never past the standing deadline.
func (g *reqGuard) settleBy() time.Time {
	t := time.Now().Add(settleGrace)
	if !g.deadline.IsZero() && g.deadline.Before(t) {
		t = g.deadline
	}
	return t
}

// mayWrite reports whether the request may still be written: false once
// ctx is done, so no request of an operation that has given up reaches
// the wire.
func (g *reqGuard) mayWrite() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.slammed && g.ctx.Err() == nil
}

// written records that the whole request is on the wire. A slam that hit
// while the final bytes went out failed nothing; when a sibling failure
// caused it, the request settles like one written before the hook fired.
func (g *reqGuard) written() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.onWire = true
	if g.slammed && g.settles() {
		g.slammed = false
		g.conn.NetConn().SetDeadline(g.settleBy())
	}
}

// setReadDeadline moves the read deadline while ctx is live; after that
// the hook owns the deadline.
func (g *reqGuard) setReadDeadline(t time.Time) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ctx.Err() != nil {
		return nil
	}
	return g.conn.NetConn().SetReadDeadline(t)
}

// restore re-arms the standing deadline (recomputed, as RequestTimeout
// runs from now) while ctx is live.
func (g *reqGuard) restore(c *Client) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ctx.Err() != nil {
		return nil
	}
	g.deadline = c.deadlineFor(g.ctx)
	return g.conn.NetConn().SetDeadline(g.deadline)
}

// release disarms the hook, reporting whether it fired: the connection
// is then poisoned and ctx.Err() is the error to report.
func (g *reqGuard) release() (fired bool) {
	return !g.stop()
}
