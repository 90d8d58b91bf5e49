package sim

// FreeList recycles objects whose whole life passes inside one system:
// an event record, a transit envelope, a micro-op. The components of one
// system may share a list, so the taker binds itself as owner: every Get
// site sets the record's owner field before it uses the record. Get hands
// out the object most recently Put, or a new zero T when none is waiting,
// so a list grows to its system's peak demand and nothing is allocated
// ahead of need. The zero value is an empty list.
//
// Put takes the object as its owner left it. An owner that keeps state
// across lives — a callback bound once, a slice's capacity — resets the
// rest itself, in one assignment that names what survives:
//
//	*r = record{step: r.step}
//
// so that no other field, the owner included, can show a previous life.
// The simulator is single-threaded within a system; a FreeList is not
// safe for concurrent use.
type FreeList[T any] struct {
	free []*T
}

// Get returns a recycled object, or a new zero one.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		p := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return p
	}
	// Refill is cold: the list grows to its system's peak demand and
	// steady state recycles.
	return new(T)
}

// Put takes back an object nothing else points to any more.
func (f *FreeList[T]) Put(p *T) {
	// The list's capacity amortizes to the peak number of idle objects.
	f.free = append(f.free, p)
}

// Idle returns the objects waiting to be handed out, most recently Put
// last. The caller must not change it.
func (f *FreeList[T]) Idle() []*T { return f.free }

// PutAll puts back every object of ps but the nil ones.
func (f *FreeList[T]) PutAll(ps []*T) {
	for _, p := range ps {
		if p != nil {
			f.Put(p)
		}
	}
}

// OrNew returns p, or a new T if p is nil.
func OrNew[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// Cleared returns m emptied, keeping its buckets, or a new map if m is nil.
func Cleared[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	clear(m)
	return m
}
