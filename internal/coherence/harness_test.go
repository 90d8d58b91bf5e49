package coherence

import (
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// testConfig is a small geometry that forces evictions quickly.
func testConfig(nodes int) Config {
	return Config{
		Nodes:  nodes,
		L1Sets: 4, L1Ways: 2,
		L2Sets: 8, L2Ways: 4,
	}
}

// protocolKind selects which of the two evaluated systems a harness
// assembles.
type protocolKind int

const (
	directory protocolKind = iota
	snooping
)

func (p protocolKind) String() string {
	if p == directory {
		return "directory"
	}
	return "snooping"
}

// bothProtocols runs a scenario once per protocol, as a subtest.
func bothProtocols(t *testing.T, scenario func(*testing.T, protocolKind)) {
	for _, proto := range []protocolKind{directory, snooping} {
		t.Run(proto.String(), func(t *testing.T) { scenario(t, proto) })
	}
}

// harness is an assembled memory system of either protocol: kernel,
// network(s), and one cache controller plus one home controller per node.
// Shared scenarios drive it through load/store/rmw/run/ctrl/memoryOf;
// protocol-specific tests reach the concrete homes through dirHomes or
// snoopHomes.
type harness struct {
	k     *sim.Kernel
	cfg   Config
	torus *network.Torus
	bcast *network.BroadcastTree // snooping only

	cores      []*ctrlCore
	homes      []Home
	dirHomes   []*DirHome
	snoopHomes []*SnoopHome
}

func newHarness(t *testing.T, proto protocolKind, nodes int) *harness {
	t.Helper()
	return newHarnessWithCfg(t, proto, testConfig(nodes))
}

func newHarnessWithCfg(t *testing.T, proto protocolKind, cfg Config) *harness {
	t.Helper()
	nodes := cfg.Nodes
	h := &harness{k: &sim.Kernel{}, cfg: cfg}
	if proto == snooping {
		h.bcast = network.NewBroadcastTree(nodes, 8.0, 3, sim.NewRand(9))
		h.torus = network.NewTorus(nodes, 8.0, 2, sim.NewRand(11))
		h.k.Register(h.bcast)
	} else {
		h.torus = network.NewTorus(nodes, 8.0, 2, sim.NewRand(7))
	}
	h.k.Register(h.torus)
	for n := 0; n < nodes; n++ {
		nid := network.NodeID(n)
		memory := mem.NewMemory()
		var cache Controller
		var home Home
		if proto == snooping {
			sc := NewSnoopCache(nid, cfg, h.bcast, h.torus)
			sh := NewSnoopHome(nid, cfg, h.torus, memory)
			h.bcast.SetHandler(nid, SnoopingAddressHandler(sc, sh))
			h.torus.SetHandler(nid, SnoopingDataHandler(sc, sh, nil))
			h.cores = append(h.cores, &sc.ctrlCore)
			h.snoopHomes = append(h.snoopHomes, sh)
			cache, home = sc, sh
		} else {
			dc := NewDirCache(nid, cfg, h.torus, NewSkewedClock(h.k.Now, uint64(n%4), 8))
			dh := NewDirHome(nid, cfg, h.torus, memory)
			h.torus.SetHandler(nid, DirectoryHandler(dc, dh, nil))
			h.cores = append(h.cores, &dc.ctrlCore)
			h.dirHomes = append(h.dirHomes, dh)
			cache, home = dc, dh
		}
		h.homes = append(h.homes, home)
		h.k.Register(cache)
		h.k.Register(home)
	}
	return h
}

// ctrl returns node n's cache controller: the shared core, through which
// every Controller method and the cache internals are reachable.
func (h *harness) ctrl(n int) *ctrlCore { return h.cores[n] }

// memoryOf returns the memory module of block b's home.
func (h *harness) memoryOf(b mem.BlockAddr) *mem.Memory {
	return h.homes[h.cfg.HomeOf(b)].Memory()
}

// setStrict toggles the protocol-anomaly panics everywhere, as fault
// injection does.
func (h *harness) setStrict(strict bool) {
	for n := range h.cores {
		h.cores[n].SetStrict(strict)
		h.homes[n].SetStrict(strict)
	}
}

// run advances until fn reports done or the cycle budget is exhausted.
func (h *harness) run(t *testing.T, done func() bool, budget uint64) {
	t.Helper()
	if !h.k.RunUntil(done, budget) {
		t.Fatalf("simulation did not converge within %d cycles", budget)
	}
}

// load performs a synchronous load on node n.
func (h *harness) load(t *testing.T, n int, addr mem.Addr) mem.Word {
	t.Helper()
	var val mem.Word
	ok := false
	h.cores[n].Load(addr, network.ClassCoherence, func(v mem.Word, _ bool) { val = v; ok = true })
	h.run(t, func() bool { return ok }, 100000)
	return val
}

// store performs a synchronous store on node n.
func (h *harness) store(t *testing.T, n int, addr mem.Addr, v mem.Word) {
	t.Helper()
	ok := false
	h.cores[n].Store(addr, v, func() { ok = true })
	h.run(t, func() bool { return ok }, 100000)
}

// rmw performs a synchronous atomic swap on node n, returning the old
// value.
func (h *harness) rmw(t *testing.T, n int, addr mem.Addr, v mem.Word) mem.Word {
	t.Helper()
	var old mem.Word
	ok := false
	h.cores[n].RMW(addr, func(mem.Word) mem.Word { return v }, func(o mem.Word) { old = o; ok = true })
	h.run(t, func() bool { return ok }, 100000)
	return old
}

// TestSnoopInstallRetry orders an own GetS and an own GetM into an L2 set
// whose ways are all transient (every resident line has an MSHR), so the
// ordering point cannot allocate and installRetry takes over. The data
// arrives while the set is still full and waits in the MSHR; the first
// retry finds the set full again and reschedules itself; once a way is
// freed the next retry installs the line in the granted state and applies
// the waiting data.
func TestSnoopInstallRetry(t *testing.T) {
	for _, tc := range []struct {
		kind SnoopKind
		want State
	}{
		{SnoopGetS, Shared},
		{SnoopGetM, Modified},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			h := newHarness(t, snooping, 2)
			c := h.ctrl(0)
			sc := c.proto.(*SnoopCache)
			sets := mem.BlockAddr(h.cfg.L2Sets)
			const target = mem.BlockAddr(5)
			// Fill target's set with Shared lines, each pinned by an MSHR.
			var pins []mem.BlockAddr
			for i := 1; i <= h.cfg.L2Ways; i++ {
				b := target + mem.BlockAddr(i)*sets
				l := c.allocate(b)
				if l == nil {
					t.Fatalf("way %d: set already full", i)
				}
				c.l2.install(l, b, Shared, mem.Block{}, true)
				c.mshrs[b] = &mshr{block: b, issued: true}
				pins = append(pins, b)
			}

			var got mem.Word
			loaded := false
			ms := &mshr{block: target, wantM: tc.kind == SnoopGetM, issued: true}
			ms.waiters = append(ms.waiters, waiter{kind: waitLoad, addr: target.WordAddr(2),
				loadDone: func(v mem.Word, _ bool) { got, loaded = v, true }})
			c.mshrs[target] = ms
			sc.Snoop(network.Wrap(network.Message{Src: 0, Size: CtrlBytes, Class: network.ClassCoherence},
				MsgSnoop{Kind: tc.kind, Block: target, Requestor: 0}))
			if c.l2.peek(target) != nil {
				t.Fatal("the ordering point installed into a set of transient ways")
			}
			var data mem.Block
			data[2] = 0xfeed
			sc.deliver(network.Wrap(network.Message{Src: 1, Dst: 0, Size: DataBytes, Class: network.ClassCoherence},
				MsgSnoopData{Block: target, Data: data}))
			if ms.dataPending == nil || ms.dataArrived {
				t.Fatal("data for an uninstalled line was not held in the MSHR")
			}

			h.k.Run(6) // one retry, still no free way
			if c.l2.peek(target) != nil || ms.dataPending == nil {
				t.Fatal("installRetry installed into a set of transient ways")
			}
			delete(c.mshrs, pins[0])
			h.k.Run(6)

			l := c.l2.peek(target)
			if l == nil {
				t.Fatal("installRetry never installed the line")
			}
			if l.state != tc.want || !l.dataValid {
				t.Errorf("line installed %v (data valid %v), want %v with its data", l.state, l.dataValid, tc.want)
			}
			if !loaded || got != 0xfeed {
				t.Errorf("load waiter got %#x (served %v), want the held data's 0xfeed", got, loaded)
			}
			if v, ok := c.PeekWord(target.WordAddr(2)); !ok || v != 0xfeed {
				t.Errorf("line holds %#x (readable %v), want the held data's 0xfeed", v, ok)
			}
			if c.mshrs[target] != nil {
				t.Error("MSHR not retired after the held data was applied")
			}
		})
	}
}
