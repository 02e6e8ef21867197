package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPxnodeSmoke builds pxnode and runs the ring and reduce workloads on
// a 3-process loopback machine: every node must exit 0, node 0 must print
// the workload's summary line and each worker must drain on the halt.
// Skipped under -short (it compiles the binary).
func TestPxnodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pxnode smoke test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "pxnode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build pxnode: %v\n%s", err, out)
	}
	for _, tc := range []struct{ workload, want string }{
		{"ring", "pxnode: ring 50 laps of 6 hops each"},
		{"reduce", "pxnode: reduce 50 rounds over 6 localities (rank sum 15)"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			outs := runMachine(t, bin, "-workload", tc.workload, "-n", "50")
			if !strings.Contains(outs[0], tc.want) {
				t.Errorf("node 0 printed no %q line:\n%s", tc.want, outs[0])
			}
			for node := 1; node < len(outs); node++ {
				if want := fmt.Sprintf("node %d halt received, draining", node); !strings.Contains(outs[node], want) {
					t.Errorf("node %d did not drain on the halt:\n%s", node, outs[node])
				}
			}
		})
	}
}

// runMachine starts a 3-node pxnode machine on free loopback ports, with
// two localities per node and driver (node 0) passing the given flags,
// and returns each node's combined output once all have exited. A node
// that exits non-zero, or a machine still running after two minutes,
// fails the test.
func runMachine(t *testing.T, bin string, driver ...string) []string {
	t.Helper()
	peers := freeAddrs(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmds := make([]*exec.Cmd, len(peers))
	outs := make([]*bytes.Buffer, len(peers))
	// Workers first, so the driver's dials find them listening.
	for node := len(peers) - 1; node >= 0; node-- {
		args := []string{"-node", strconv.Itoa(node), "-peers", strings.Join(peers, ","),
			"-localities", "2,2,2", "-workers", "2"}
		if node == 0 {
			args = append(args, driver...)
		}
		outs[node] = &bytes.Buffer{}
		cmds[node] = exec.CommandContext(ctx, bin, args...)
		cmds[node].Stdout, cmds[node].Stderr = outs[node], outs[node]
		if err := cmds[node].Start(); err != nil {
			t.Fatalf("start node %d: %v", node, err)
		}
	}
	got := make([]string, len(peers))
	for node, cmd := range cmds {
		err := cmd.Wait()
		got[node] = outs[node].String()
		if err != nil {
			t.Errorf("node %d exited with %v:\n%s", node, err, got[node])
		}
	}
	return got
}

// freeAddrs reserves n loopback ports and releases them for the nodes.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}
