package coherence

import (
	"math/bits"
	"slices"
	"sort"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// ctrlCore is the protocol-independent half of a cache controller,
// embedded by DirCache and SnoopCache: the L1 tag filter and L2 array,
// the event queue, the MSHR and writeback tables, the processor-facing
// access path, listener and statistics plumbing, and every
// fault-injection hook. What differs between the two evaluated systems
// (Table 6) is only how requests are ordered, so the embedding
// controller supplies just that: its message/snoop handlers, the three
// protocol methods below, and the epoch time base. A new listener or
// fault hook is added here, once.
type ctrlCore struct {
	node  network.NodeID
	cfg   Config
	proto protocol

	// hitUnderMiss is the one difference on the shared access path, fixed
	// by the constructor. The directory home blocks per block, so an S
	// copy stays coherent — and keeps serving read hits — until the Inv
	// or grant that ends it arrives, even while its own upgrade is
	// outstanding (true). A snooping line's state runs ahead of its data
	// between the ordering point and data arrival, so nothing may hit on
	// a block that has an MSHR (false).
	hitUnderMiss bool

	l2 *cacheArray
	l1 *tagFilter

	queue

	mshrs map[mem.BlockAddr]*mshr
	wb    map[mem.BlockAddr]wbEntry
	// wbOrder is ForEachDirty's buffer for the writeback entries' blocks,
	// kept so a checkpoint with writebacks outstanding allocates nothing.
	wbOrder []mem.BlockAddr

	// Records that live and die inside one system are recycled (DESIGN.md,
	// "Object lifetimes"): a processor request on its way through the
	// lookup stages, a delivered message in the input latch, MSHRs, and a
	// request waiting for one to free up. The lists are the controller's
	// own until Spare.Lend points them at the spare's, which every
	// controller and home of the system shares.
	accesses *sim.FreeList[access]
	inbounds *sim.FreeList[inbound]
	mshrFree *sim.FreeList[mshr]
	retries  *sim.FreeList[retry]

	epochL  EpochListener
	accessL AccessListener
	txnL    TxnListener

	stats  ControllerStats
	strict bool

	// Armed CorruptLineStateFault record: which block's MOSI state was
	// corrupted, in which direction, and whether the corruption was
	// architecturally exercised before being erased.
	stateFaultBlock   mem.BlockAddr
	stateFaultPromote bool
	stateFaultArmed   bool
	stateFaultFired   bool
	stateFaultFiredAt sim.Cycle
}

// protocol is what the core needs from the controller embedding it. All
// of it is reached from the miss path or on a delivered message; hits
// never leave the core.
type protocol interface {
	// sendRequest puts the MSHR's GetS/GetM on the protocol's request
	// network.
	sendRequest(ms *mshr)
	// evict removes a stable line to make room: it ends the line's epoch
	// in the protocol's time base and starts the writeback its state
	// calls for.
	evict(l *line)
	// deliver handles a message that has passed the input latch.
	deliver(m *network.Message)
}

type waiterKind uint8

const (
	waitLoad waiterKind = iota + 1
	waitStore
	waitRMW
)

type waiter struct {
	kind     waiterKind
	addr     mem.Addr
	val      mem.Word
	loadDone func(mem.Word, bool)
	perfDone func()
	rmwFn    func(mem.Word) mem.Word
	rmwDone  func(mem.Word)
}

// mshr tracks one outstanding transaction. The home's per-block blocking
// means the directory needs only the first group of fields; the second
// group is snooping's bookkeeping between a transaction's ordering point
// and its data arrival (zero under the directory), kept in the same
// struct so a miss costs one allocation in either protocol.
type mshr struct {
	block   mem.BlockAddr
	wantM   bool
	issued  bool
	pending bool // waiting for a wb entry on the same block to clear
	class   network.Class
	waiters []waiter

	ordered     bool
	orderedAt   uint64
	dataArrived bool
	grantKind   EpochKind
	curState    State // our state in global order during the pending phase
	transitions []snoopTransition
	dataPending *MsgSnoopData // data that arrived before a line could be allocated
}

// wbEntry is an evicted block awaiting the protocol's writeback
// acknowledgement (directory: WBAck; snooping: the ordering of its own
// PutM). dirty says the entry still holds the system's only up-to-date
// copy, so recalls/snoops are answered from it and checkpoints capture
// it: false for the directory's dataless PutS placeholder, and cleared
// when a foreign GetM takes ownership before a snooping PutM is ordered.
// Entries are held by value, so an eviction allocates nothing beyond its
// message.
type wbEntry struct {
	data  mem.Block
	dirty bool
}

func (c *ctrlCore) init(node network.NodeID, cfg Config, proto protocol, hitUnderMiss bool) {
	c.node = node
	c.cfg = cfg
	c.proto = proto
	c.hitUnderMiss = hitUnderMiss
	c.l2 = newCacheArray(cfg.L2Sets, cfg.L2Ways)
	c.l1 = newTagFilter(cfg.L1Sets, cfg.L1Ways)
	c.mshrs = make(map[mem.BlockAddr]*mshr)
	c.wb = make(map[mem.BlockAddr]wbEntry)
	c.strict = true
	c.draw(new(records))
}

// draw makes r's lists the source of the controller's records.
func (c *ctrlCore) draw(r *records) {
	c.accesses, c.inbounds, c.mshrFree, c.retries = &r.accesses, &r.inbounds, &r.mshrs, &r.retries
}

// SetStrict implements Controller: toggles panic-on-protocol-anomaly
// (default true). Fault-injection campaigns run with strict=false so that
// injected corruptions produce architecturally visible misbehaviour for
// DVMC to catch rather than a simulator abort.
func (c *ctrlCore) SetStrict(s bool) { c.strict = s }

// SetEpochListener implements Controller.
func (c *ctrlCore) SetEpochListener(l EpochListener) { c.epochL = l }

// SetAccessListener implements Controller.
func (c *ctrlCore) SetAccessListener(l AccessListener) { c.accessL = l }

// SetTxnListener implements Controller.
func (c *ctrlCore) SetTxnListener(l TxnListener) { c.txnL = l }

// Stats implements Controller.
func (c *ctrlCore) Stats() ControllerStats { return c.stats }

// Outstanding implements Controller.
func (c *ctrlCore) Outstanding() int { return len(c.mshrs) }

func (c *ctrlCore) epochBegin(b mem.BlockAddr, k EpochKind, at uint64, dataKnown bool, data mem.Block) {
	if c.epochL != nil {
		c.epochL.EpochBegin(b, k, at, dataKnown, data)
	}
}

func (c *ctrlCore) epochData(b mem.BlockAddr, data mem.Block) {
	if c.epochL != nil {
		c.epochL.EpochData(b, data)
	}
}

func (c *ctrlCore) epochEnd(b mem.BlockAddr, k EpochKind, at uint64, data mem.Block) {
	if c.epochL != nil {
		c.epochL.EpochEnd(b, k, at, data)
	}
}

func (c *ctrlCore) access(b mem.BlockAddr, write bool) {
	if c.accessL != nil {
		c.accessL.Access(b, write)
	}
}

// mayHit reports whether block b's resident line may serve hits now (see
// hitUnderMiss).
func (c *ctrlCore) mayHit(b mem.BlockAddr) bool {
	return c.hitUnderMiss || c.mshrs[b] == nil
}

// access is one processor request on its way through the lookup stages.
// The event queue holds it (through step) until a stage completes it or
// hands its waiter to an MSHR; either way it is released first, so at no
// time do both the queue and an MSHR know it.
type access struct {
	core *ctrlCore // the controller that took it
	step func()    // run, bound once when the record is first made
	w    waiter    // kind 0: an exclusive prefetch
	// class is the traffic class a miss is issued under.
	class network.Class
	// atL2 says the L1 stage missed and this is the L2 lookup.
	atL2 bool
}

// launch starts a request: its first lookup stage runs after delay.
func (c *ctrlCore) launch(w waiter, class network.Class, delay sim.Cycle) {
	a := c.accesses.Get()
	if a.step == nil {
		a.step = a.run
	}
	a.core, a.w, a.class = c, w, class
	c.schedule(a, delay)
}

// schedule hands a to the event queue: its next stage runs after delay.
func (c *ctrlCore) schedule(a *access, delay sim.Cycle) { c.later(delay, a.step) }

// finish releases a, handing back what its last stage still needs.
func (a *access) finish() (w waiter, class network.Class) {
	c := a.core
	w, class = a.w, a.class
	*a = access{step: a.step}
	c.accesses.Put(a)
	return w, class
}

// run is one lookup stage of the request.
func (a *access) run() {
	c := a.core
	b := a.w.addr.Block()
	switch a.w.kind {
	case waitLoad:
		c.loadStage(a, b)
	case waitStore:
		c.storeStage(a, b)
	case waitRMW:
		c.rmwStage(a, b)
	default:
		c.prefetchStage(a, b)
	}
}

// Load implements Controller.
func (c *ctrlCore) Load(addr mem.Addr, class network.Class, done func(mem.Word, bool)) {
	if class == network.ClassReplay {
		c.stats.ReplayLoads++
	} else {
		c.stats.Loads++
	}
	c.launch(waiter{kind: waitLoad, addr: addr, loadDone: done}, class, l1Latency)
}

func (c *ctrlCore) loadStage(a *access, b mem.BlockAddr) {
	l := c.l2.lookup(b)
	readable := l != nil && l.state.CanRead() && l.dataValid && c.mayHit(b)
	if !a.atL2 {
		if c.l1.present(b) && readable {
			c.stats.L1Hits++
			val := c.l2.readWord(l, a.w.addr)
			c.access(b, false)
			w, _ := a.finish()
			w.loadDone(val, true)
			return
		}
		c.stats.L1Misses++
		if a.class == network.ClassReplay {
			c.stats.ReplayL1Misses++
		}
		a.atL2 = true
		c.schedule(a, l2Latency)
		return
	}
	if readable {
		c.stats.L2Hits++
		c.l1.insert(b)
		val := c.l2.readWord(l, a.w.addr)
		c.access(b, false)
		w, _ := a.finish()
		w.loadDone(val, false)
		return
	}
	c.stats.L2Misses++
	w, class := a.finish()
	c.join(b, false, class, w)
}

// Store implements Controller.
func (c *ctrlCore) Store(addr mem.Addr, val mem.Word, done func()) {
	c.stats.Stores++
	c.launch(waiter{kind: waitStore, addr: addr, val: val, perfDone: done}, network.ClassCoherence, l1Latency)
}

func (c *ctrlCore) storeStage(a *access, b mem.BlockAddr) {
	l := c.l2.lookup(b)
	writable := l != nil && l.state.CanWrite() && l.dataValid && c.mayHit(b)
	// Fast path: a store to a writable block with a hot L1 tag completes
	// at L1 latency (the exclusive prefetch at execute usually makes this
	// the common case, which is what lets the TSO write buffer drain at
	// pipeline speed).
	if writable && (a.atL2 || c.l1.present(b)) {
		w, _ := a.finish()
		c.performStore(l, w.addr, w.val)
		w.perfDone()
		return
	}
	if !a.atL2 {
		a.atL2 = true
		c.schedule(a, l2Latency)
		return
	}
	c.stats.L2Misses++
	w, class := a.finish()
	c.join(b, true, class, w)
}

// RMW implements Controller.
func (c *ctrlCore) RMW(addr mem.Addr, f func(mem.Word) mem.Word, done func(mem.Word)) {
	c.stats.Loads++
	c.stats.Stores++
	c.launch(waiter{kind: waitRMW, addr: addr, rmwFn: f, rmwDone: done}, network.ClassCoherence,
		l1Latency+l2Latency)
}

func (c *ctrlCore) rmwStage(a *access, b mem.BlockAddr) {
	w, class := a.finish()
	l := c.l2.lookup(b)
	if l != nil && l.state.CanWrite() && l.dataValid && c.mayHit(b) {
		old := c.l2.readWord(l, w.addr)
		c.performStore(l, w.addr, w.rmwFn(old))
		w.rmwDone(old)
		return
	}
	c.stats.L2Misses++
	c.join(b, true, class, w)
}

// PrefetchExclusive implements Controller.
func (c *ctrlCore) PrefetchExclusive(addr mem.Addr) {
	c.launch(waiter{addr: addr}, network.ClassCoherence, l1Latency)
}

func (c *ctrlCore) prefetchStage(a *access, b mem.BlockAddr) {
	w, class := a.finish()
	l := c.l2.lookup(b)
	if l != nil && l.state.CanWrite() && c.mayHit(b) {
		return
	}
	if ms, busy := c.mshrs[b]; busy {
		if !ms.issued {
			ms.wantM = true
		}
		return
	}
	if len(c.mshrs) >= maxMSHRs {
		return // drop the hint; prefetches are best-effort
	}
	c.join(b, true, class, w)
}

// inbound is a delivered message in the controller's one-cycle input
// latch.
type inbound struct {
	core *ctrlCore // the controller that took it
	step func()    // run, bound once
	m    *network.Message
}

// receive latches a delivered message; the protocol sees it next cycle.
func (c *ctrlCore) receive(m *network.Message) {
	r := c.inbounds.Get()
	if r.step == nil {
		r.step = r.run
	}
	r.core, r.m = c, m
	c.latch(r)
}

// latch hands r to the event queue for the one cycle of input latency.
func (c *ctrlCore) latch(r *inbound) { c.later(1, r.step) }

func (r *inbound) run() {
	c, m := r.core, r.m
	*r = inbound{step: r.step}
	c.inbounds.Put(r)
	c.proto.deliver(m)
}

// PeekWord implements Controller.
func (c *ctrlCore) PeekWord(addr mem.Addr) (mem.Word, bool) {
	l := c.l2.peek(addr.Block())
	if l == nil || !l.state.CanRead() || !l.dataValid {
		return 0, false
	}
	return l.data[addr.WordIndex()], true
}

// performStore writes into a Modified line and notifies listeners.
func (c *ctrlCore) performStore(l *line, addr mem.Addr, val mem.Word) {
	if c.stateFaultArmed && c.stateFaultPromote && l.block == c.stateFaultBlock {
		// The store is performing under write permission the system never
		// granted (no GetM was ordered for it): other sharers still hold —
		// and may read — the old value.
		c.fireStateFault()
	}
	c.l2.writeWord(l, addr, val)
	c.l1.insert(l.block)
	c.access(l.block, true)
}

// join adds a request to the block's MSHR, creating and issuing one if
// needed. A zero-kind waiter (prefetch) registers no callback.
func (c *ctrlCore) join(b mem.BlockAddr, needM bool, class network.Class, w waiter) {
	ms := c.mshrs[b]
	if ms == nil {
		if len(c.mshrs) >= maxMSHRs {
			// Structural stall: retry when an MSHR frees up.
			r := c.retries.Get()
			if r.step == nil {
				r.step = r.run
			}
			r.core, r.b, r.needM, r.class, r.w = c, b, needM, class, w
			c.later(4, r.step)
			return
		}
		ms = c.mshrFree.Get()
		ms.block, ms.wantM, ms.class = b, needM, class
		c.mshrs[b] = ms
		if _, wbPending := c.wb[b]; wbPending {
			ms.pending = true
		} else {
			c.issue(ms)
		}
	} else if needM && !ms.wantM && !ms.issued {
		ms.wantM = true
	}
	if w.kind != 0 {
		ms.waiters = append(ms.waiters, w)
	}
}

// retry is a request that found every MSHR busy, waiting to join again.
type retry struct {
	core  *ctrlCore // the controller that took it
	step  func()    // run, bound once when the record is first made
	b     mem.BlockAddr
	needM bool
	class network.Class
	w     waiter
}

func (r *retry) run() {
	c, b, needM, class, w := r.core, r.b, r.needM, r.class, r.w
	*r = retry{step: r.step}
	c.retries.Put(r)
	c.join(b, needM, class, w)
}

// issue starts the MSHR's transaction and sends its request.
func (c *ctrlCore) issue(ms *mshr) {
	ms.issued = true
	ms.pending = false
	c.stats.TransactionsIssued++
	if c.txnL != nil {
		c.txnL.TxnBegin(ms.block, ms.wantM)
	}
	c.proto.sendRequest(ms)
}

// wbDone clears block b's writeback entry once the protocol has
// acknowledged or ordered the writeback, and releases an MSHR that was
// held back behind it.
func (c *ctrlCore) wbDone(b mem.BlockAddr) {
	delete(c.wb, b)
	if ms := c.mshrs[b]; ms != nil && ms.pending {
		c.issue(ms)
	}
}

// allocate finds room for block b, evicting if necessary. Lines with an
// active MSHR are transient and not eviction candidates; nil means every
// way in the set is busy and the caller retries.
func (c *ctrlCore) allocate(b mem.BlockAddr) *line {
	set := c.l2.fillSet(b)
	var vic *line
	for i := range set {
		l := &set[i]
		if !l.valid {
			return l
		}
		if _, busy := c.mshrs[l.block]; busy {
			continue
		}
		if vic == nil || l.lru < vic.lru {
			vic = l
		}
	}
	if vic == nil {
		return nil
	}
	c.proto.evict(vic)
	return vic
}

// dropLine invalidates a line and its L1 tag (inclusion).
func (c *ctrlCore) dropLine(l *line) {
	c.l1.invalidate(l.block)
	c.l2.invalidate(l)
}

// serveWaiters completes the MSHR's waiters on a granted line: loads
// always, stores and RMWs only under an exclusive grant. The store
// waiters a Shared grant could not satisfy stay in ms.waiters, filtered
// in place so the slice keeps its capacity.
func (c *ctrlCore) serveWaiters(ms *mshr, l *line, exclusive bool) {
	remaining := ms.waiters[:0]
	for _, w := range ms.waiters {
		switch w.kind {
		case waitLoad:
			val := c.l2.readWord(l, w.addr)
			c.access(l.block, false)
			w.loadDone(val, false)
		case waitStore:
			if exclusive {
				c.performStore(l, w.addr, w.val)
				w.perfDone()
			} else {
				remaining = append(remaining, w)
			}
		case waitRMW:
			if exclusive {
				old := c.l2.readWord(l, w.addr)
				c.performStore(l, w.addr, w.rmwFn(old))
				w.rmwDone(old)
			} else {
				remaining = append(remaining, w)
			}
		}
	}
	ms.waiters = remaining
}

// retire ends the MSHR's transaction. With store waiters left over from a
// Shared grant the MSHR stays, now wanting M, and retire reports true:
// the caller re-issues it as a fresh transaction.
func (c *ctrlCore) retire(ms *mshr) (upgrade bool) {
	upgrade = len(ms.waiters) > 0
	if c.txnL != nil {
		c.txnL.TxnEnd(ms.block, upgrade)
	}
	if !upgrade {
		delete(c.mshrs, ms.block)
		// Nothing else points to a retired MSHR: its waiters were served
		// and a snooping install retry ends before the line exists. The
		// served waiters' callbacks are cleared from the slice's array,
		// so that an idle MSHR in the spare keeps no retired system
		// reachable.
		clear(ms.waiters[:cap(ms.waiters)])
		*ms = mshr{waiters: ms.waiters[:0], transitions: ms.transitions[:0]}
		c.mshrFree.Put(ms)
		return false
	}
	ms.wantM = true
	return true
}

// fireStateFault records that the armed state corruption took
// architectural effect this cycle.
func (c *ctrlCore) fireStateFault() {
	if !c.stateFaultFired {
		c.stateFaultFired = true
		c.stateFaultFiredAt = c.now()
	}
}

// stateFaultLeaving is called wherever block b's line is about to be
// read out, overwritten or dropped by the path its (possibly corrupted)
// state selects. If b is the line an armed CorruptLineStateFault
// demoted, that path is the clean one and the only up-to-date copy is
// lost: the fault fires. erased says the line does not survive, which
// ends the corruption either way.
func (c *ctrlCore) stateFaultLeaving(b mem.BlockAddr, erased bool) {
	if !c.stateFaultArmed || b != c.stateFaultBlock {
		return
	}
	if !c.stateFaultPromote {
		c.fireStateFault()
	}
	if erased {
		c.stateFaultArmed = false
	}
}

// resident returns up to max blocks with valid data that keep accepts,
// most recently used first.
func (c *ctrlCore) resident(max int, keep func(*line) bool) []mem.BlockAddr {
	type cand struct {
		b   mem.BlockAddr
		lru uint64
	}
	var cands []cand
	for _, chunk := range c.l2.chunks {
		for i := range chunk.entries {
			l := &chunk.entries[i]
			if l.valid && l.dataValid && keep(l) {
				cands = append(cands, cand{l.block, l.lru})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lru > cands[j].lru })
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]mem.BlockAddr, len(cands))
	for i, cd := range cands {
		out[i] = cd.b
	}
	return out
}

// ResidentBlocks implements Controller: resident blocks, MRU first.
func (c *ctrlCore) ResidentBlocks(max int) []mem.BlockAddr {
	return c.resident(max, func(*line) bool { return true })
}

// ResidentReadOnlyBlocks implements Controller.
func (c *ctrlCore) ResidentReadOnlyBlocks(max int) []mem.BlockAddr {
	return c.resident(max, func(l *line) bool { return l.state == Shared || l.state == Owned })
}

// ForEachDirty implements Controller. The touched masks say which sets
// changed since the last call; each is reported and cleared.
func (c *ctrlCore) ForEachDirty(set func(s int), fn func(b mem.BlockAddr, data mem.Block)) {
	a := c.l2
	for k := range a.chunks {
		ch := &a.chunks[k]
		for m := ch.touched; m != 0; m &= m - 1 {
			s := k*chunkSets + bits.TrailingZeros16(m)
			set(s)
			lines := a.set(s)
			for i := range lines {
				if l := &lines[i]; l.dirty() {
					fn(l.block, l.data)
				}
			}
		}
		ch.touched = 0
	}
	set(a.sets)
	if len(c.wb) == 0 {
		return // every checkpoint comes through here
	}
	order := c.wbOrder[:0]
	for b := range c.wb {
		order = append(order, b)
	}
	slices.Sort(order)
	c.wbOrder = order
	for _, b := range order {
		if e := c.wb[b]; e.dirty {
			fn(b, e.data)
		}
	}
}

// ECCCorrected implements Controller.
func (c *ctrlCore) ECCCorrected() uint64 { return c.l2.ecc.Corrected() }

// Reset implements Controller. The empty cache is the new baseline of
// ForEachDirty: no set counts as touched.
func (c *ctrlCore) Reset() {
	c.stateFaultArmed = false // recovery wipes the cache; fired persists
	for k := range c.l2.chunks {
		ch := &c.l2.chunks[k]
		for i := range ch.entries {
			if ch.entries[i].valid {
				c.l2.invalidate(&ch.entries[i])
			}
		}
		ch.touched = 0
	}
	c.l1 = newTagFilter(c.cfg.L1Sets, c.cfg.L1Ways)
	c.mshrs = make(map[mem.BlockAddr]*mshr)
	c.wb = make(map[mem.BlockAddr]wbEntry)
	c.events = sim.EventQueue{}
}

// CorruptCacheBit implements Controller.
func (c *ctrlCore) CorruptCacheBit(b mem.BlockAddr, bit int) bool {
	l := c.l2.peek(b)
	if l == nil || !l.valid || !l.dataValid {
		return false
	}
	c.l2.flip(l, bit)
	return true
}

// DropPermissionFault implements Controller.
func (c *ctrlCore) DropPermissionFault(b mem.BlockAddr) bool {
	l := c.l2.peek(b)
	if l == nil || !l.valid {
		return false
	}
	// The controller forgets it holds the block: no epoch end, no
	// writeback, no inform. The rest of the system still believes this
	// node holds it.
	c.dropLine(l)
	return true
}

// WriteWithoutPermissionFault implements Controller.
func (c *ctrlCore) WriteWithoutPermissionFault(addr mem.Addr, val mem.Word) bool {
	l := c.l2.peek(addr.Block())
	if l == nil || !l.valid || !l.dataValid {
		return false
	}
	// Skip the upgrade: write in whatever state the line is in. The
	// access listener still fires, as the datapath performed a store.
	c.l2.writeWord(l, addr, val)
	c.access(addr.Block(), true)
	return true
}

// CorruptLineStateFault implements Controller.
func (c *ctrlCore) CorruptLineStateFault(b mem.BlockAddr, promote bool) bool {
	l := c.l2.peek(b)
	if l == nil || !l.valid || !l.dataValid {
		return false
	}
	if promote {
		if l.state != Shared && l.state != Owned {
			return false
		}
		c.l2.setState(l, Modified, l.dataValid)
	} else {
		if l.state != Modified {
			return false
		}
		c.l2.setState(l, Shared, l.dataValid)
	}
	c.stateFaultBlock = b
	c.stateFaultPromote = promote
	c.stateFaultArmed = true
	return true
}

// StateFaultFired implements Controller.
func (c *ctrlCore) StateFaultFired() (sim.Cycle, bool) {
	return c.stateFaultFiredAt, c.stateFaultFired
}
