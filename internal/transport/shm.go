package transport

// Same-host fabric: when two pxnode processes share a machine, their
// frames do not need to pay the loopback TCP tax (checksums, small-packet
// scheduling, conntrack on some hosts). Alongside its TCP listener every
// node binds a Unix-domain stream listener at a path derived
// deterministically from the TCP port, and a dialer whose target is a
// loopback address probes for that socket first: if it exists and
// connects, the frame stream rides the Unix socket — same handshake, same
// framing, same lane writer — and falls back to TCP otherwise. The
// selection is invisible above the transport: a same-host connection is
// just a net.Conn whose writes are cheaper.
//
// The fabric is best-effort by design. A host where the socket path
// cannot be bound stays TCP-only; a stale socket left by a crashed
// process is removed before bind; and TCPConfig.DisableSameHost turns
// the whole mechanism off (CI exercises both modes).

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"time"
)

// sameHostPath maps a TCP listen address to the Unix socket path its
// owner advertises. Empty when the address doesn't name a usable port.
// The path lives in the default temp directory and carries only the
// port: loopback ports are host-unique, so the port alone identifies
// the process, and a dialer needs to derive the same path from nothing
// but the peer's dial address.
func sameHostPath(tcpAddr string) string {
	_, port, err := net.SplitHostPort(tcpAddr)
	if err != nil || port == "" || port == "0" {
		return ""
	}
	return filepath.Join(os.TempDir(), "pxtp-"+port+".sock")
}

// isLoopbackAddr reports whether addr names this host's loopback — the
// only addresses for which the same-host probe can apply.
func isLoopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return false
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// listenSameHost binds the Unix-domain companion listener for a bound TCP
// listen address. A stale socket file (crashed predecessor) is removed
// first; any failure leaves the node TCP-only.
func listenSameHost(bound net.Addr) (net.Listener, error) {
	path := sameHostPath(bound.String())
	if path == "" {
		return nil, nil
	}
	// Only remove what looks like an abandoned fabric socket: if the
	// path is live (its owner accepts), a second process is already
	// bound to this port's path — impossible for a real TCP port owner,
	// so the probe failing is the expected case.
	if _, err := os.Stat(path); err == nil {
		if c, err := net.DialTimeout("unix", path, 50*time.Millisecond); err == nil {
			c.Close()
			return nil, nil
		}
		os.Remove(path)
	}
	return net.Listen("unix", path)
}

// dialSameHost probes the same-host fabric for a peer dial address:
// loopback target, advertised socket present, connection accepted. The
// bool reports whether the fabric applied; false means dial TCP.
func dialSameHost(ctx context.Context, d *net.Dialer, addr string) (net.Conn, bool) {
	if !isLoopbackAddr(addr) {
		return nil, false
	}
	path := sameHostPath(addr)
	if path == "" {
		return nil, false
	}
	if _, err := os.Stat(path); err != nil {
		return nil, false
	}
	conn, err := d.DialContext(ctx, "unix", path)
	if err != nil {
		return nil, false
	}
	return conn, true
}

// removeSameHost deletes the advertised socket file on Close so a
// successor on the same port doesn't probe a corpse.
func removeSameHost(bound net.Addr) {
	if path := sameHostPath(bound.String()); path != "" {
		os.Remove(path)
	}
}
