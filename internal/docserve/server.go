package docserve

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atk/internal/datastream"
)

// Server multiplexes document hosts behind one listener. The accept loop
// reads each connection's hello, routes it to the named host, and the
// host's session machinery takes over. Each host is a shard: it owns its
// own lock, journal, history window, and sessions, so traffic on one
// document never contends with another's — the only shared state is this
// routing map, read-locked on the attach path.
type Server struct {
	opts HostOptions

	// rejected counts connections turned away before a session existed:
	// unreadable or malformed hellos, unknown documents, full hosts. It is
	// the server-level complement of Host.Stats().ProtocolErrors, which
	// only sees violations after attach — a hostile-bytes flood lands
	// here.
	rejected atomic.Uint64

	mu     sync.RWMutex
	hosts  map[string]*Host
	lns    []net.Listener
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns an empty server. Of opts it uses the timeouts, which
// bound a connection's hello and rejection; hosts carry their own options.
func NewServer(opts HostOptions) *Server {
	return &Server{opts: opts.withDefaults(), hosts: map[string]*Host{}}
}

// AddHost registers a host under its document name.
func (s *Server) AddHost(h *Host) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hosts[h.name] = h
}

// Hosts snapshots the currently open hosts.
func (s *Server) Hosts() []*Host {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Host, 0, len(s.hosts))
	for _, h := range s.hosts {
		out = append(out, h)
	}
	return out
}

func (s *Server) host(name string) (*Host, error) {
	// Attaches share a read lock, so a join storm on many documents never
	// serializes here.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errors.New("docserve: server closed")
	}
	h, ok := s.hosts[name]
	if !ok {
		return nil, fmt.Errorf("docserve: no document %q", name)
	}
	return h, nil
}

// Serve accepts connections from ln until the listener is closed. It
// returns the accept error (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("docserve: server closed")
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.HandleConn(conn)
		}()
	}
}

// HandleConn runs one connection to completion (exported so tests and
// in-process transports can hand the server a net.Pipe end directly).
func (s *Server) HandleConn(conn net.Conn) {
	fr := newFrameReader(conn)
	reject := func(reason string) {
		s.rejected.Add(1)
		_ = conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		_, _ = conn.Write(datastream.AppendEscaped(nil, "err "+reason))
		_ = conn.Close()
	}
	if s.opts.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	frame, err := readFrame(fr)
	if err != nil {
		s.rejected.Add(1)
		_ = conn.Close()
		return
	}
	hello, err := parseHello(frame)
	if err != nil {
		reject(err.Error())
		return
	}
	h, err := s.host(hello.doc)
	if err != nil {
		reject(err.Error())
		return
	}
	sess, err := h.attach(conn, hello)
	if err != nil {
		reject(err.Error())
		return
	}
	sess.serve(fr)
}

// Rejections returns how many connections the server has turned away at
// the door (before any session attached).
func (s *Server) Rejections() uint64 { return s.rejected.Load() }

// DialSpec dials a server address of the form "tcp:host:port" or
// "unix:/path" — the spec syntax ezserve listens on and loadgen and the
// SLO harness dial.
func DialSpec(spec string) (net.Conn, error) {
	proto, addr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("docserve: bad connect spec %q (want tcp:host:port or unix:/path)", spec)
	}
	switch proto {
	case "tcp", "unix":
		return net.Dial(proto, addr)
	default:
		return nil, fmt.Errorf("docserve: unsupported connect protocol %q", proto)
	}
}

// Close stops accepting, disconnects every session, and closes every host
// (saving file-backed documents).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lns := s.lns
	s.lns = nil
	hosts := make([]*Host, 0, len(s.hosts))
	for _, h := range s.hosts {
		hosts = append(hosts, h)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	var first error
	for _, h := range hosts {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.wg.Wait()
	return first
}
