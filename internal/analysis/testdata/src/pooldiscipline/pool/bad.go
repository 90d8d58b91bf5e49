// Package pool seeds every pool-ownership shape the pooldiscipline
// analyzer classifies: clean acquire/release, ownership handoffs,
// discarded acquires, leak-on-branch, reassign-while-live, acquires
// through a wrapper, and the panic-path exemption. The freelist's type and
// method names mirror the real module's sim.FreeList, which is what the
// analyzer keys on, generic receiver included.
package pool

type Msg struct{ n int }

type FreeList[T any] struct{ free []*T }

func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		p := f.free[n-1]
		f.free = f.free[:n-1]
		return p
	}
	return new(T)
}

func (f *FreeList[T]) Put(p *T) { f.free = append(f.free, p) }

// InformPool wraps a freelist the way core.InformPool does: message
// returns what it acquired, so its callers own a pooled object too.
type InformPool struct{ msgs FreeList[Msg] }

func (p *InformPool) message() *Msg {
	if p == nil {
		return &Msg{}
	}
	return p.msgs.Get()
}

// bound wraps through a variable.
func (p *InformPool) bound() *Msg {
	m := p.msgs.Get()
	m.n = 1
	return m
}

func (p *InformPool) Release(m *Msg) { p.msgs.Put(m) }

type record struct {
	step func()
	hop  int
}

type Ctrl struct {
	records FreeList[record]
	queue   []func()
}

// --- findings ---

func Discard(f *FreeList[Msg]) {
	f.Get() // want "discarded"
}

func Blank(f *FreeList[Msg]) {
	_ = f.Get() // want "discarded"
}

func LeakOnBranch(f *FreeList[Msg], cond bool) {
	m := f.Get() // want "can leak"
	if cond {
		return
	}
	f.Put(m)
}

func Reassign(f *FreeList[Msg]) {
	m := f.Get() // want "can leak"
	m = f.Get()
	f.Put(m)
}

// EarlyReturn is the shape a new event record invites: acquired, then a
// guard returns before the record is scheduled or put back.
func (c *Ctrl) EarlyReturn(busy bool) {
	r := c.records.Get() // want "can leak"
	r.hop = 3
	if busy {
		return
	}
	c.schedule(r)
}

// StepOnly schedules the record's bound callback but never hands over the
// record itself: reading r.step does not transfer r.
func (c *Ctrl) StepOnly() {
	r := c.records.Get() // want "can leak"
	c.queue = append(c.queue, r.step)
}

func WrapperLeak(p *InformPool, cond bool) {
	m := p.message() // want "can leak"
	if cond {
		return
	}
	p.Release(m)
}

func BoundWrapperDiscard(p *InformPool) {
	p.bound() // want "discarded"
}

// --- negatives: none of the following may produce a diagnostic ---

func (c *Ctrl) schedule(r *record) { c.queue = append(c.queue, r.step) }

// Good releases on the only path out.
func Good(f *FreeList[Msg]) {
	m := f.Get()
	m.n = 1
	f.Put(m)
}

// Scheduled hands the record to the helper that queues it.
func (c *Ctrl) Scheduled() {
	r := c.records.Get()
	r.hop = 1
	c.schedule(r)
}

// Handoff transfers ownership to the caller through append.
func Handoff(f *FreeList[Msg], q []*Msg) []*Msg {
	m := f.Get()
	return append(q, m)
}

// Nested hands ownership off at the acquire site itself.
func Nested(p *InformPool) {
	p.Release(p.message())
}

// CrashPath may exit through panic still holding the object: a crash
// path leaks nothing into steady state.
func CrashPath(f *FreeList[Msg], cond bool) {
	m := f.Get()
	if cond {
		panic("boom")
	}
	f.Put(m)
}
