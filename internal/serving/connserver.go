package serving

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/proto"
)

// Handler is the request-level surface a ConnServer fronts: one protocol
// request in, one response out. The mediator Server implements it over a
// federation; the federation router implements it over a replica set.
type Handler interface {
	Handle(*proto.Request) *proto.Response
}

// ConnServer is the transport layer of the wire protocol, factored
// out of the mediator server so any Handler (mediator or router) gets
// the same accept loop, connection tracking, idle deadlines and drained
// shutdown. Connections are handled concurrently; the Handler must be
// safe for concurrent use.
type ConnServer struct {
	h Handler
	// IdleTimeout drops connections silent longer than this (0 = never);
	// it also bounds response writes.
	IdleTimeout time.Duration
	// onShutdown runs once after the connections drain (the mediator
	// server closes its mediator here); may be nil.
	onShutdown func() error

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	accepted atomic.Int64
}

// NewConnServer wraps a handler with the connection layer.
func NewConnServer(h Handler, idleTimeout time.Duration, onShutdown func() error) *ConnServer {
	return &ConnServer{
		h:           h,
		IdleTimeout: idleTimeout,
		onShutdown:  onShutdown,
		lns:         make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("serving: server closed")

// Serve accepts connections on ln until Shutdown; each connection gets
// its own goroutine. Returns ErrServerClosed after a clean shutdown.
func (s *ConnServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			return ErrServerClosed
		}
		s.accepted.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.ServeConn(conn)
		}()
	}
}

// track registers an accepted connection and counts its handler in wg,
// both under mu and only while the server is open: Shutdown sets closed
// under mu before it waits, so every Add happens before that Wait.
func (s *ConnServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *ConnServer) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Accepted counts connections accepted since start.
func (s *ConnServer) Accepted() int64 { return s.accepted.Load() }

// ActiveConns is the current tracked-connection population.
func (s *ConnServer) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Shutdown stops accepting, waits up to drain for in-flight connections
// to finish, force-closes the stragglers, then runs the onShutdown hook.
// Safe to call once.
func (s *ConnServer) Shutdown(drain time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
		// Drain expired: force-close what is left and wait for the
		// handler goroutines to observe the closed connections.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.onShutdown != nil {
		return s.onShutdown()
	}
	return nil
}

// keepBlock bounds the row-block buffer a connection keeps between
// responses: one that grew past it for a large answer is dropped, so an
// idle connection does not pin the largest answer it ever sent.
const keepBlock = 1 << 20

// ServeConn runs the protocol loop for one connection until the peer
// hangs up, a protocol-level I/O error occurs, or the idle deadline
// fires. It does not close or track the connection; Serve does both,
// and tests may drive it directly. Each response leaves as its header
// line and its row block in one vectored write, from two buffers the
// connection reuses.
func (s *ConnServer) ServeConn(conn net.Conn) {
	r := proto.NewReader(conn)
	var line, block []byte
	// A write consumes bufs, so each response refills it from vec; both
	// live across responses and cost nothing per write. An empty block
	// stays out: a zero-length write still waits for a net.Pipe reader.
	var vec [2][]byte
	var bufs net.Buffers
	for {
		// The read deadline covers the idle wait for the next request; a
		// half-open connection (peer gone without FIN) times out here
		// instead of pinning the goroutine and its buffers forever.
		if s.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		req, err := r.ReadRequest()
		if err != nil {
			return
		}
		resp := s.h.Handle(req)
		if s.IdleTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.IdleTimeout))
		}
		line, block, err = proto.AppendFrame(line[:0], block[:0], resp)
		if err != nil {
			// Over the frame limit: say so and keep the connection.
			if line, block, err = proto.AppendFrame(line[:0], block[:0], &proto.Response{Error: err.Error()}); err != nil {
				return
			}
		}
		if bufs = append(vec[:0], line); len(block) > 0 {
			bufs = append(bufs, block)
		}
		if _, err := bufs.WriteTo(conn); err != nil {
			return
		}
		if cap(block) > keepBlock {
			block = nil
		}
	}
}
