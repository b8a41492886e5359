package live

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"repro/internal/cluster"
)

// NewTCP builds a live cluster whose heartbeats travel over a real TCP
// loopback connection via net/rpc: the JobTracker listens on an ephemeral
// 127.0.0.1 port and every TaskTracker dials its own client connection.
// Functionally identical to New, but the control plane pays genuine
// serialization and socket latency — the closest this reproduction gets to
// the paper's master node answering heartbeat RPCs on a real cluster.
//
// Close the returned cluster with CloseTransport after Run to release the
// listener and client connections.
func NewTCP(cfg Config, pol cluster.Policy) (*Cluster, error) {
	return newCluster(cfg, pol, newControlPlane, true)
}

// listen serves the control plane over net/rpc on an ephemeral loopback port
// and returns how each TaskTracker dials its own client connection to it.
func (c *Cluster) listen() (func() (heartbeatFunc, error), error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("JobTracker", &rpcJobTracker{jt: c.jt}); err != nil {
		return nil, fmt.Errorf("live: registering RPC service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live: listening: %w", err)
	}
	c.transport = &tcpTransport{listener: ln}
	go c.transport.accept(srv)
	return c.transport.dial, nil
}

// TransportAddr returns the JobTracker listener's address for clusters
// built with NewTCP, or "" for in-process clusters.
func (c *Cluster) TransportAddr() string {
	if c.transport == nil {
		return ""
	}
	return c.transport.listener.Addr().String()
}

// CloseTransport shuts down the TCP listener and client connections of a
// cluster built with NewTCP. It is a no-op for in-process clusters.
func (c *Cluster) CloseTransport() error {
	if c.transport == nil {
		return nil
	}
	return c.transport.close()
}

// rpcJobTracker adapts the control plane's Heartbeat to the net/rpc method
// shape.
type rpcJobTracker struct {
	jt controlPlane
}

// Heartbeat is the exported RPC method.
func (r *rpcJobTracker) Heartbeat(hb Heartbeat, reply *[]Assignment) error {
	*reply = r.jt.Heartbeat(hb)
	return nil
}

// tcpTransport owns the listener and per-tracker client connections.
type tcpTransport struct {
	listener net.Listener
	clients  []*rpc.Client

	mu     sync.Mutex
	closed bool
}

// dial opens one TaskTracker's client connection, which close shuts.
func (t *tcpTransport) dial() (heartbeatFunc, error) {
	client, err := rpc.Dial("tcp", t.listener.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("live: dialing JobTracker: %w", err)
	}
	t.clients = append(t.clients, client)
	return func(h Heartbeat) ([]Assignment, error) {
		var out []Assignment
		if err := client.Call("JobTracker.Heartbeat", h, &out); err != nil {
			return nil, err
		}
		return out, nil
	}, nil
}

func (t *tcpTransport) accept(srv *rpc.Server) {
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go srv.ServeConn(conn)
	}
}

func (t *tcpTransport) close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.listener.Close()
	for _, c := range t.clients {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
