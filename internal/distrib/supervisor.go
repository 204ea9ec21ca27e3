package distrib

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pairing"
)

// procState tracks one node's OS process across its boot epochs.
type procState struct {
	cmd    *exec.Cmd
	epoch  uint32
	waitCh chan error // closed by the reaper after cmd.Wait returns
	log    *os.File
}

// Supervisor launches one OS process per planned node, monitors their
// hellos, SIGKILLs and restarts them through the protocol recovery
// paths, and imposes socket-level partitions at each node's proxy. It is
// itself a node (DriverID) on the same TCP fabric, which is how it
// queries snapshots and injects workload.
type Supervisor struct {
	dep   *Deployment
	dir   string
	bin   string
	codec *protocol.WireCodec
	fab   *livenet.TCP
	clock *livenet.LamportClock
	trace *Tracer

	mu      sync.Mutex
	proxies map[string]*proxy
	procs   map[string]*procState
	ready   map[string]uint32 // node id -> boot epoch last helloed
	pending map[uint64]chan protocol.MsgNodeSnapshot
	flows   map[uint64]map[string]bool // flow id -> switches reporting done
	nonce   uint64
	traces  []string
	closed  bool
}

// NewSupervisor plans proxies and writes the per-node bundle and address
// files into dir, but launches nothing; call Start per node. bin is the
// cicero-node binary.
func NewSupervisor(dep *Deployment, bin, dir string) (*Supervisor, error) {
	s := &Supervisor{
		dep:     dep,
		dir:     dir,
		bin:     bin,
		codec:   protocol.NewWireCodec(pairing.Fast254()),
		clock:   livenet.NewLamportClock(),
		proxies: make(map[string]*proxy),
		procs:   make(map[string]*procState),
		ready:   make(map[string]uint32),
		pending: make(map[uint64]chan protocol.MsgNodeSnapshot),
		flows:   make(map[uint64]map[string]bool),
	}
	remotes := make(map[fabric.NodeID]string)
	for _, id := range dep.NodeIDs() {
		p, err := newProxy(id)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.proxies[id] = p
		remotes[fabric.NodeID(id)] = p.Addr()
	}
	fab, err := livenet.NewTCPNode(livenet.TCPOptions{
		Codec:   s.codec,
		Remotes: remotes,
		Clock:   s.clock,
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	s.fab = fab
	fab.Register(DriverID, fabric.HandlerFunc(s.handle))

	tracePath := filepath.Join(dir, "trace-driver.jsonl")
	s.trace, err = NewTracer(tracePath, DriverID, s.clock)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.traces = append(s.traces, tracePath)

	// The address map every node dials by: peers through their proxies,
	// the driver directly (the fault plane never cuts the control loop).
	addrs := make(map[string]string, len(dep.Bundles)+1)
	for id, p := range s.proxies {
		addrs[id] = p.Addr()
	}
	addrs[DriverID] = fab.Addr(DriverID)
	addrData, err := json.MarshalIndent(addrs, "", "  ")
	if err != nil {
		s.Close()
		return nil, err
	}
	if err := os.WriteFile(s.addrsPath(), addrData, 0o644); err != nil {
		s.Close()
		return nil, err
	}
	for id, b := range dep.Bundles {
		if err := WriteBundle(s.bundlePath(id), s.codec, b, dep.deployPriv); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func sanitize(id string) string { return strings.ReplaceAll(id, "/", "_") }

func (s *Supervisor) addrsPath() string { return filepath.Join(s.dir, "addrs.json") }
func (s *Supervisor) bundlePath(id string) string {
	return filepath.Join(s.dir, "bundle-"+sanitize(id)+".json")
}

// TracePaths returns every trace file written so far (driver plus one
// per node boot).
func (s *Supervisor) TracePaths() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.traces...)
}

// handle runs on the driver's mailbox: node hellos retarget proxies,
// snapshots satisfy pending queries, flow completions accumulate.
func (s *Supervisor) handle(from fabric.NodeID, msg fabric.Message) {
	switch m := msg.(type) {
	case protocol.MsgNodeHello:
		s.trace.Emit(TraceHello, fmt.Sprintf("%s pid=%d epoch=%d", m.ID, m.PID, m.BootEpoch), "")
		s.mu.Lock()
		p := s.proxies[m.ID]
		s.ready[m.ID] = m.BootEpoch + 1 // +1 so epoch 0 reads as present
		s.mu.Unlock()
		if p != nil {
			p.SetBackend(m.Addr)
		}
	case protocol.MsgNodeSnapshot:
		s.mu.Lock()
		ch := s.pending[m.Nonce]
		delete(s.pending, m.Nonce)
		s.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	case protocol.MsgFlowDone:
		s.mu.Lock()
		set := s.flows[m.FlowID]
		if set == nil {
			set = make(map[string]bool)
			s.flows[m.FlowID] = set
		}
		set[m.Switch] = true
		s.mu.Unlock()
	}
	_ = from
}

// Start launches the node's process at boot epoch 0.
func (s *Supervisor) Start(id string) error {
	return s.launch(id, 0)
}

func (s *Supervisor) launch(id string, epoch uint32) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("distrib: supervisor closed")
	}
	if ps := s.procs[id]; ps != nil && ps.cmd != nil {
		s.mu.Unlock()
		return fmt.Errorf("distrib: %s already running", id)
	}
	tracePath := filepath.Join(s.dir, fmt.Sprintf("trace-%s-%d.jsonl", sanitize(id), epoch))
	s.traces = append(s.traces, tracePath)
	delete(s.ready, id)
	s.mu.Unlock()

	args := []string{
		"-bundle", s.bundlePath(id),
		"-addrs", s.addrsPath(),
		"-deploy-pub", hex.EncodeToString(s.dep.DeployPub),
		"-trace", tracePath,
		"-boot-epoch", fmt.Sprintf("%d", epoch),
	}
	cmd := exec.Command(s.bin, args...)
	logf, err := os.OpenFile(filepath.Join(s.dir, "log-"+sanitize(id)+".txt"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("distrib: start %s: %w", id, err)
	}
	ps := &procState{cmd: cmd, epoch: epoch, waitCh: make(chan error, 1), log: logf}
	s.mu.Lock()
	s.procs[id] = ps
	s.mu.Unlock()
	go func() {
		ps.waitCh <- cmd.Wait()
		close(ps.waitCh)
		logf.Close()
	}()
	return nil
}

// WaitReady blocks until every listed node has helloed its current boot,
// or the deadline passes.
func (s *Supervisor) WaitReady(ids []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		missing := ""
		s.mu.Lock()
		for _, id := range ids {
			if s.ready[id] == 0 {
				missing = id
				break
			}
		}
		s.mu.Unlock()
		if missing == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("distrib: %s not ready after %v", missing, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Kill SIGKILLs the node's process — no shutdown path runs — and clears
// its proxy backend so every peer's connection to it dies like the
// process did. It reaps the process before returning.
func (s *Supervisor) Kill(id string) error {
	s.mu.Lock()
	ps := s.procs[id]
	p := s.proxies[id]
	delete(s.ready, id)
	s.mu.Unlock()
	if ps == nil || ps.cmd == nil {
		return fmt.Errorf("distrib: %s not running", id)
	}
	s.trace.Emit("kill", id, "")
	ps.cmd.Process.Signal(syscall.SIGKILL)
	if p != nil {
		p.SetBackend("")
	}
	select {
	case <-ps.waitCh:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("distrib: %s did not die after SIGKILL", id)
	}
	s.mu.Lock()
	delete(s.procs, id)
	s.mu.Unlock()
	return nil
}

// Restart relaunches a killed node at its next boot epoch, which is what
// sends it through the protocol recovery path (core's restart rule).
func (s *Supervisor) Restart(id string) error {
	s.mu.Lock()
	if s.procs[id] != nil {
		s.mu.Unlock()
		return fmt.Errorf("distrib: %s still running; kill it first", id)
	}
	epoch := s.nextEpoch(id)
	s.mu.Unlock()
	return s.launch(id, epoch)
}

// nextEpoch returns the next unused boot epoch for id; s.mu must be held.
func (s *Supervisor) nextEpoch(id string) uint32 {
	var next uint32
	prefix := fmt.Sprintf("trace-%s-", sanitize(id))
	for _, tr := range s.traces {
		base := filepath.Base(tr)
		if strings.HasPrefix(base, prefix) {
			next++
		}
	}
	return next
}

// Partition severs both directions between a and b at their proxies.
func (s *Supervisor) Partition(a, b string) {
	s.PartitionOneWay(a, b)
	s.PartitionOneWay(b, a)
}

// PartitionOneWay blocks frames from `from` at `to`'s proxy.
func (s *Supervisor) PartitionOneWay(from, to string) {
	s.mu.Lock()
	p := s.proxies[to]
	s.mu.Unlock()
	if p != nil {
		s.trace.Emit("partition", from+" -/-> "+to, "")
		p.Block(from)
	}
}

// Heal removes both directions of a partition.
func (s *Supervisor) Heal(a, b string) {
	s.HealOneWay(a, b)
	s.HealOneWay(b, a)
}

// HealOneWay unblocks frames from `from` at `to`'s proxy.
func (s *Supervisor) HealOneWay(from, to string) {
	s.mu.Lock()
	p := s.proxies[to]
	s.mu.Unlock()
	if p != nil {
		s.trace.Emit("heal", from+" --> "+to, "")
		p.Unblock(from)
	}
}

// Snapshot queries the node's state across the process boundary,
// retrying (fresh nonce each attempt) until the deadline.
func (s *Supervisor) Snapshot(id string, timeout time.Duration) (protocol.MsgNodeSnapshot, error) {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		s.nonce++
		nonce := s.nonce
		ch := make(chan protocol.MsgNodeSnapshot, 1)
		s.pending[nonce] = ch
		s.mu.Unlock()
		s.fab.SendErr(DriverID, fabric.NodeID(id), protocol.MsgNodeQuery{Nonce: nonce}, 0)
		select {
		case snap := <-ch:
			return snap, nil
		case <-time.After(500 * time.Millisecond):
			s.mu.Lock()
			delete(s.pending, nonce)
			s.mu.Unlock()
			if time.Now().After(deadline) {
				return protocol.MsgNodeSnapshot{}, fmt.Errorf("distrib: snapshot %s: no reply after %v", id, timeout)
			}
		}
	}
}

// InjectFlow asks the switch to raise a packet-arrival event for the
// src->dst flow; the switch reports back when its table serves the flow.
func (s *Supervisor) InjectFlow(sw string, flowID uint64, src, dst string) error {
	s.trace.Emit("inject", fmt.Sprintf("flow=%d %s->%s at %s", flowID, src, dst, sw), "")
	return s.fab.SendErr(DriverID, fabric.NodeID(sw),
		protocol.MsgInjectFlow{FlowID: flowID, Src: src, Dst: dst}, 0)
}

// FlowDone reports whether any switch has confirmed the flow installed.
func (s *Supervisor) FlowDone(flowID uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flows[flowID]) > 0
}

// Nudge sends a liveness nudge (resend-events, redispatch, recover).
func (s *Supervisor) Nudge(id, op string) error {
	return s.fab.SendErr(DriverID, fabric.NodeID(id), protocol.MsgNudge{Op: op}, 0)
}

// LiveProcs returns the ids of nodes whose processes are still running.
func (s *Supervisor) LiveProcs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, ps := range s.procs {
		if ps != nil && ps.cmd != nil && ps.cmd.ProcessState == nil {
			out = append(out, id)
		}
	}
	return out
}

// Close SIGKILLs every remaining process, reaps them, and tears down
// proxies, fabric and tracer. Safe to call more than once.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	procs := make(map[string]*procState, len(s.procs))
	for id, ps := range s.procs {
		procs[id] = ps
	}
	s.procs = make(map[string]*procState)
	proxies := s.proxies
	s.proxies = make(map[string]*proxy)
	s.mu.Unlock()

	for _, ps := range procs {
		if ps != nil && ps.cmd != nil && ps.cmd.Process != nil {
			ps.cmd.Process.Signal(syscall.SIGKILL)
		}
	}
	for _, ps := range procs {
		if ps != nil {
			select {
			case <-ps.waitCh:
			case <-time.After(10 * time.Second):
			}
		}
	}
	for _, p := range proxies {
		p.Close()
	}
	if s.fab != nil {
		s.fab.Close()
	}
	s.trace.Close()
}
