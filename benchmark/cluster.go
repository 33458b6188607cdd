package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/transport"
)

// buildNode compiles cmd/auroranode from the checkout the benchmark runs
// in. It happens once per invocation, before any timer starts.
func buildNode(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "auroranode")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/auroranode")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build auroranode: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddrs picks n distinct loopback ports the kernel considers free
// right now: all n listeners are held open until the last is picked, so
// no port comes back twice. Another socket can still take one before a
// node binds it; bringUp retries the cluster then.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// nodeProc is one running auroranode process.
type nodeProc struct {
	def      nodeDef
	cmd      *exec.Cmd
	addr     string
	httpAddr string // "" unless the cluster was started for a traced run
	dataDir  string // "" unless the workload is durable
	stderr   bytes.Buffer
	exited   chan struct{} // closed once the process has been reaped
}

func (n *nodeProc) pid() int { return n.cmd.Process.Pid }

func (n *nodeProc) hasExited() bool {
	select {
	case <-n.exited:
		return true
	default:
		return false
	}
}

// cluster is the system under test plus the generator's two transport
// endpoints: src dials the first node, the last node dials sink. Those
// are the only two TCP connections the benchmark holds.
type cluster struct {
	w     *workload
	bin   string      // the auroranode binary
	dir   string      // network files and data dirs; removed by stop
	nodes []*nodeProc // upstream first
	src   *transport.TCP
	sink  *transport.TCP
	// spawned is the instant before the first node process was started;
	// setup_s runs from here to the first verified output.
	spawned time.Time

	stopOnce sync.Once
}

const startTimeout = 15 * time.Second

// startCluster brings the topology up downstream first, so no node ever
// dials a peer that is not listening yet: a failed first dial would put
// the supervised link's jittered redial backoff into setup_s.
func startCluster(w *workload, bin, dir string, withHTTP bool, onSink transport.Handler) (c *cluster, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c = &cluster{w: w, bin: bin, dir: dir}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	if c.sink, err = transport.ListenTCP(sinkID, "127.0.0.1:0", onSink); err != nil {
		return c, err
	}
	if c.src, err = transport.ListenTCP(srcID, "127.0.0.1:0", nil); err != nil {
		return c, err
	}
	addrs, err := freeAddrs(2 * len(w.nodes))
	if err != nil {
		return c, err
	}
	c.nodes = make([]*nodeProc, len(w.nodes))
	for i, def := range w.nodes {
		n := &nodeProc{def: def, addr: addrs[2*i], exited: make(chan struct{})}
		if withHTTP {
			n.httpAddr = addrs[2*i+1]
		}
		if w.durable {
			n.dataDir = filepath.Join(dir, def.id+"-data")
		}
		c.nodes[i] = n
	}

	c.spawned = time.Now()
	deadline := c.spawned.Add(startTimeout)
	for i := len(c.nodes) - 1; i >= 0; i-- {
		n := c.nodes[i]
		nextID, nextAddr := sinkID, c.sink.Addr()
		if i+1 < len(c.nodes) {
			nextID, nextAddr = c.nodes[i+1].def.id, c.nodes[i+1].addr
		}
		if err = c.spawn(n, nextID, nextAddr); err != nil {
			return c, err
		}
		if err = c.waitListening(n, deadline); err != nil {
			return c, err
		}
	}
	first, last := c.nodes[0], c.nodes[len(c.nodes)-1]
	if err = c.src.AddPeer(first.def.id, first.addr); err != nil {
		return c, err
	}
	// Sends are gated on both ends of the generator being connected: the
	// supervised link would otherwise buffer (and past 1024 messages drop).
	err = c.waitFor(deadline, "links to come up", func() bool {
		st, _ := c.src.LinkState(first.def.id)
		if st != transport.LinkEstablished {
			return false
		}
		for _, p := range c.sink.Peers() {
			if p == last.def.id {
				return true
			}
		}
		return false
	})
	return c, err
}

func (c *cluster) spawn(n *nodeProc, nextID, nextAddr string) error {
	spec, err := n.def.networkJSON()
	if err != nil {
		return err
	}
	netPath := filepath.Join(c.dir, n.def.id+".json")
	if err := os.WriteFile(netPath, spec, 0o644); err != nil {
		return err
	}
	args := []string{
		"-id", n.def.id, "-listen", n.addr, "-network", netPath,
		"-quiet", "-workers", "0", "-ha-routes=true",
		"-peer", nextID + "=" + nextAddr,
		"-route", n.def.output + "=" + nextID + "/" + n.def.output,
	}
	if n.dataDir != "" {
		args = append(args, "-data-dir", n.dataDir)
	}
	if n.httpAddr != "" {
		args = append(args, "-http", n.httpAddr)
	}
	n.cmd = exec.Command(c.bin, args...)
	n.cmd.Stderr = &n.stderr
	// Own process group, so stop can kill the node and anything it might
	// start; Pdeathsig covers the benchmark itself being killed.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", n.def.id, err)
	}
	go func() {
		_ = n.cmd.Wait() // the exit status of a killed node carries nothing
		close(n.exited)
	}()
	return nil
}

// waitListening polls the node's transport port with bare connects. The
// node's accept loop drops a connection that never says hello, so the
// probe leaves nothing behind.
func (c *cluster) waitListening(n *nodeProc, deadline time.Time) error {
	return c.waitFor(deadline, n.def.id+" to listen", func() bool {
		nc, err := net.DialTimeout("tcp", n.addr, 100*time.Millisecond)
		if err != nil {
			return false
		}
		nc.Close()
		return true
	})
}

// waitFor polls cond every millisecond until it holds, a node exits, or
// the deadline passes.
func (c *cluster) waitFor(deadline time.Time, what string, cond func() bool) error {
	for !cond() {
		if err := c.alive(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// alive reports a node that exited while the run still needs it.
func (c *cluster) alive() error {
	for _, n := range c.nodes {
		if n.cmd != nil && n.hasExited() {
			return fmt.Errorf("node %s exited early: %s", n.def.id, bytes.TrimSpace(n.stderr.Bytes()))
		}
	}
	return nil
}

// procSnaps reads every node's kernel accounting, upstream first.
func (c *cluster) procSnaps() ([]procSnap, error) {
	out := make([]procSnap, len(c.nodes))
	for i, n := range c.nodes {
		s, err := readProc(n.pid())
		if err != nil {
			return nil, fmt.Errorf("proc %s: %w", n.def.id, err)
		}
		out[i] = s
	}
	return out, nil
}

// stop closes the generator's endpoints, kills every node's process group,
// waits for each to be reaped, and removes the cluster's directory. Safe
// to call more than once and on a half-started cluster.
func (c *cluster) stop() {
	c.stopOnce.Do(func() {
		for _, n := range c.nodes {
			if n.cmd == nil || n.cmd.Process == nil {
				continue
			}
			_ = syscall.Kill(-n.pid(), syscall.SIGKILL) // already gone is fine
			<-n.exited
		}
		if c.src != nil {
			c.src.Close()
		}
		if c.sink != nil {
			c.sink.Close()
		}
		os.RemoveAll(c.dir)
	})
}
