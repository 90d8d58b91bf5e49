package core

// segLen is how many entries one segment of a segDeque holds.
const segLen = 16

// segDeque is a double-ended queue stored in segments of segLen entries.
// It grows one segment at a time and never copies or abandons what it
// holds, so what it allocates tracks its peak length; a slice grown by
// append allocates about twice its peak on the way there, which is most of
// what the MET's queue and the CET's scrub FIFO cost a short run. A
// segment emptied at the front is reused at the back. The MET's priority
// queue is a binary heap over at, push and popBack; the CET's scrub FIFO
// uses push and popFront. The zero value is an empty deque.
type segDeque[T any] struct {
	segs []*[segLen]T
	head int // the front entry's index in segs[0]
	n    int
}

// len returns the number of entries.
func (d *segDeque[T]) len() int { return d.n }

// at returns the i-th entry from the front, 0 <= i < len().
func (d *segDeque[T]) at(i int) *T {
	i += d.head
	return &d.segs[i/segLen][i%segLen]
}

// push appends v at the back.
func (d *segDeque[T]) push(v T) {
	if d.head+d.n == len(d.segs)*segLen {
		if d.head >= segLen {
			s := d.segs[0]
			copy(d.segs, d.segs[1:])
			d.segs[len(d.segs)-1] = s
			d.head -= segLen
		} else {
			d.segs = append(d.segs, new([segLen]T))
		}
	}
	d.n++
	*d.at(d.n - 1) = v
}

// popFront removes and returns the front entry.
func (d *segDeque[T]) popFront() T {
	p := d.at(0)
	v := *p
	var zero T
	*p = zero
	d.head++
	d.n--
	if d.n == 0 {
		d.head = 0
	}
	return v
}

// popBack removes and returns the back entry.
func (d *segDeque[T]) popBack() T {
	p := d.at(d.n - 1)
	v := *p
	var zero T
	*p = zero
	d.n--
	if d.n == 0 {
		d.head = 0
	}
	return v
}

// reset empties the deque and keeps its segments.
func (d *segDeque[T]) reset() {
	for d.n > 0 {
		d.popBack()
	}
}
